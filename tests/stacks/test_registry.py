"""Stack registry: registration rules, spec resolution, and the
acceptance property of the plugin architecture — a stack registered
*outside* the harness runs through every experiment entry point without
modifying a single harness module.
"""

from __future__ import annotations

import pytest

from repro.core.config import MtpTimers
from repro.sim.units import MILLISECOND
from repro.topology.clos import two_pod_params
from repro.stacks import (
    Deployment,
    StackDefinition,
    StackKind,
    StackTimers,
    UnknownStackError,
    available_stacks,
    canonical_params,
    get_stack,
    register_stack,
    resolve_spec,
    unregister_stack,
)
from repro.stacks.builtin import (
    _mtp_detection_bound_us,
    _mtp_keepalive_period_us,
    deploy_mtp_stack,
)
from repro.harness.experiments import build_and_converge
from repro.harness.executor import run_tasks
from repro.harness.sweep import FailurePoint, sweep_result, sweep_specs
from repro.scenario import (
    SCENARIO_RUN,
    failure_run_specs,
    run_failure_experiment,
    scenario_task_key,
)


BUILTINS = ("mtp", "bgp", "bgp-bfd", "mtp-spray", "bgp-nomultipath")


# ----------------------------------------------------------------------
# registration rules
# ----------------------------------------------------------------------
def test_builtins_registered_in_order():
    assert available_stacks()[:5] == BUILTINS


def test_duplicate_name_rejected():
    defn = get_stack("mtp")
    with pytest.raises(ValueError, match="already registered"):
        register_stack(defn)
    # replace=True is the explicit override, and restores cleanly
    assert register_stack(defn, replace=True) is defn
    assert get_stack("mtp") is defn


def test_blank_name_rejected():
    defn = get_stack("mtp")
    for bad in ("", "   "):
        with pytest.raises(ValueError):
            register_stack(StackDefinition(
                name=bad, display="x", deploy=defn.deploy,
                detection_bound_us=defn.detection_bound_us,
                keepalive_period_us=defn.keepalive_period_us))


def test_unknown_stack_error_lists_available():
    with pytest.raises(UnknownStackError, match="mtp"):
        get_stack("ospf")
    with pytest.raises(UnknownStackError):
        unregister_stack("ospf")


# ----------------------------------------------------------------------
# spec resolution
# ----------------------------------------------------------------------
def test_resolve_spec_accepts_every_handle_shape():
    by_name = resolve_spec("bgp-bfd")
    by_enum = resolve_spec(StackKind.BGP_BFD)
    by_defn = resolve_spec(get_stack("bgp-bfd"))
    by_spec = resolve_spec(by_name)
    assert by_name == by_enum == by_defn == by_spec
    assert by_name.name == "bgp-bfd"
    assert by_name.params_dict() == {"bfd": True}


def test_resolve_spec_applies_timers():
    timers = StackTimers(mtp=MtpTimers(hello_us=25 * MILLISECOND,
                                       dead_us=50 * MILLISECOND))
    spec = resolve_spec("mtp", timers)
    assert spec.timers is timers
    # and re-resolving an existing spec with new timers swaps them
    assert resolve_spec(spec, StackTimers()).timers == StackTimers()


def test_resolve_spec_rejects_junk():
    with pytest.raises(TypeError):
        resolve_spec(42)


def test_canonical_params_sorted_and_stable():
    a = canonical_params({"b": 2, "a": 1})
    b = canonical_params({"a": 1, "b": 2})
    assert a == b == (("a", 1), ("b", 2))


def test_variant_cache_keys_differ_from_parent():
    """mtp and mtp-spray share a deploy callable; only their canonical
    params differ — the cache key must still separate them."""
    keys = {
        scenario_task_key(failure_run_specs(
            two_pod_params(), name, "TC1", seeds=(0,))[0])
        for name in BUILTINS
    }
    assert len(keys) == len(BUILTINS)


# ----------------------------------------------------------------------
# plugin acceptance: a stack registered here, in a test file, runs
# through the failure harness and the robustness sweep untouched
# ----------------------------------------------------------------------
@pytest.fixture
def throwaway_stack():
    name = "mtp-fasthello"
    register_stack(StackDefinition(
        name=name,
        display="MR-MTP (fast hello)",
        deploy=deploy_mtp_stack,
        detection_bound_us=_mtp_detection_bound_us,
        keepalive_period_us=_mtp_keepalive_period_us,
        description="test-only variant with 20/60 ms hello/dead timers",
        default_params={},
    ))
    try:
        yield name
    finally:
        unregister_stack(name)


def test_registered_variant_runs_failure_experiment(throwaway_stack):
    result = run_failure_experiment(two_pod_params(), throwaway_stack, "TC4",
                                    seed=0)
    assert result.stack == throwaway_stack
    assert get_stack(result.stack).display == "MR-MTP (fast hello)"
    # same deploy + same timers as plain mtp -> same physics
    golden = run_failure_experiment(two_pod_params(), "mtp", "TC4", seed=0)
    assert result.convergence_us == golden.convergence_us
    assert result.blast_routers == golden.blast_routers


def test_registered_variant_runs_robustness_sweep(throwaway_stack):
    points = [FailurePoint("L-1-1", "eth1", "S-1-1"),
              FailurePoint("T-1", "eth1", "S-1-1")]
    outcomes = run_tasks(SCENARIO_RUN, sweep_specs(
        two_pod_params(), throwaway_stack, points=points))
    assert len(outcomes) == 2
    assert all(sweep_result(p, o.metrics).ok
               for p, o in zip(points, outcomes))


def test_built_deployment_satisfies_protocol(throwaway_stack):
    world, topo, dep = build_and_converge(two_pod_params(), throwaway_stack)
    assert isinstance(dep, Deployment)
    assert dep.ready()
    assert dep.keepalive_period_us() == StackTimers().mtp.hello_us
    assert dep.detection_bound_us() == StackTimers().mtp.dead_us
    stats = dep.table_stats(topo.aggs[0][0][0])
    assert stats.entries > 0 and stats.memory_bytes > 0


def test_spec_is_picklable_for_fanout():
    import pickle

    spec = resolve_spec("mtp-spray")
    assert pickle.loads(pickle.dumps(spec)) == spec
