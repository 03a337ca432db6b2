"""Stack registry: registration rules, spec resolution, and the
acceptance property of the plugin architecture — a stack registered
*outside* the harness runs through every experiment entry point without
modifying a single harness module.
"""

from __future__ import annotations

import pytest

from repro.bfd.session import BfdTimers
from repro.bgp.config import BgpTimers
from repro.core.config import MtpTimers
from repro.sim.units import MILLISECOND
from repro.topology import build_topology
from repro.topology.clos import two_pod_params
from repro.stacks import (
    Deployment,
    StackDefinition,
    StackTimers,
    UnknownStackError,
    available_stacks,
    canonical_params,
    get_stack,
    register_stack,
    resolve_spec,
    unregister_stack,
)
from repro.stacks import mtp
from repro.harness.experiments import (
    build_and_converge,
    detection_bound_us,
    stale_hold_us,
)
from repro.harness.executor import run_tasks
from repro.scenario import (
    SCENARIO_RUN,
    SWEEP,
    TC_RUN,
    FailurePoint,
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
                name=bad, display="x", description="", family=defn.family))


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
    by_defn = resolve_spec(get_stack("bgp-bfd"))
    by_spec = resolve_spec(by_name)
    assert by_name == by_defn == by_spec
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
        scenario_task_key(TC_RUN.expand(two_pod_params(), [name])[0])
        for name in BUILTINS
    }
    assert len(keys) == len(BUILTINS)


def test_spec_rejects_parameters_the_deploy_function_does_not_take():
    with pytest.raises(ValueError, match="unknown mtp parameter.*spary") \
            as excinfo:
        get_stack("mtp").spec(spary=True)
    assert "per_packet_spray" in str(excinfo.value)   # lists the accepted
    with pytest.raises(ValueError, match="bfd"):
        get_stack("mtp-gr").spec(bfd=True)            # the other family's
    spec = get_stack("mtp").spec(per_packet_spray=True)
    assert spec.params == get_stack("mtp-spray").spec().params


def test_every_table_row_deploys_with_its_default_params():
    for name in available_stacks():
        defn = get_stack(name)
        assert defn.spec(**defn.default_params) == defn.spec()


# ----------------------------------------------------------------------
# timer bounds: decided once per family, read before and after deploy
# ----------------------------------------------------------------------
_NON_DEFAULT = StackTimers(
    bgp=BgpTimers(keepalive_us=500 * MILLISECOND, hold_us=1500 * MILLISECOND),
    bfd=BfdTimers(tx_interval_us=50 * MILLISECOND, detect_mult=4),
    mtp=MtpTimers(hello_us=25 * MILLISECOND, dead_us=50 * MILLISECOND))

_BOUND_CASES = [
    *((name, timers, {}) for name in available_stacks()
      for timers in (StackTimers(), _NON_DEFAULT)),
    ("mtp", StackTimers(), {"liveness": True}),
    ("mtp-adaptive", _NON_DEFAULT, {"liveness": {"max_scale": 12.0}}),
]


@pytest.mark.parametrize(
    "name,timers,overrides", _BOUND_CASES,
    ids=[f"{n}-{'default' if t == StackTimers() else 'fast'}"
         f"{'-' + ','.join(o) if o else ''}" for n, t, o in _BOUND_CASES])
def test_bounds_before_deploy_equal_the_deployed_ones(name, timers,
                                                      overrides):
    defn = get_stack(name)
    spec = defn.spec(timers=timers, **overrides)
    deployment = defn.build(build_topology(two_pod_params()), spec)
    assert detection_bound_us(spec) == deployment.detection_bound_us()
    assert (defn.family.keepalive_period_us(spec.timers, spec.params_dict())
            == deployment.keepalive_period_us())


@pytest.mark.parametrize("name,held", [
    ("mtp-gr", lambda agent: agent.stale_hold_us),
    ("bgp-gr", lambda agent: agent.config.gr_restart_time_us)])
def test_stale_hold_before_deploy_is_what_the_agents_hold(name, held):
    """A family's stale hold is the one its deployed helpers keep; a
    stack without graceful restart holds nothing stale."""
    defn = get_stack(name)
    deployment = defn.build(build_topology(two_pod_params()), defn.spec())
    assert stale_hold_us(name) > 0
    assert {held(agent) for agent in deployment.agents.values()} == {
        stale_hold_us(name)}
    assert stale_hold_us(name.removesuffix("-gr")) == 0


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
        description="test-only variant with 20/60 ms hello/dead timers",
        family=mtp,
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
    specs = SWEEP.expand(two_pod_params(), [throwaway_stack], point=points)
    outcomes = run_tasks(SCENARIO_RUN, specs)
    assert len(outcomes) == 2
    assert not any(row["unreachable"] for row in SWEEP.rows(specs, outcomes))


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
