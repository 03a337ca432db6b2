"""Converged-world snapshots: picklability is a stack contract, what is
shared is decided by the task list, and a bad snapshot never changes a
result."""

from __future__ import annotations

import pickle

import pytest

from repro.harness.digest import run_digest
from repro.harness.experiments import build_and_converge
from repro.harness.executor import CampaignReport, WorldSnapshots, world_key
from repro.scenario import (
    get_scenario,
    run_scenario_suite,
    run_scenario_task,
    scenario_suite_specs,
)
from repro.sim.units import MILLISECOND
from repro.stacks import (
    StackDefinition,
    available_stacks,
    register_stack,
    resolve_spec,
    unregister_stack,
)
from repro.stacks.builtin import (
    _mtp_detection_bound_us,
    _mtp_keepalive_period_us,
    deploy_mtp_stack,
)
from repro.topology.clos import two_pod_params


@pytest.mark.parametrize("topology", ["clos", "vl2", "dcell"])
@pytest.mark.parametrize("stack", available_stacks())
def test_converged_world_survives_pickle(topology, stack):
    """The contract a stack signs by registering: its converged world
    round-trips, and the copy plays on exactly like the original."""
    world, _topo, deployment = build_and_converge(topology, stack, seed=1)
    blob = pickle.dumps((world, _topo, deployment), pickle.HIGHEST_PROTOCOL)
    copy_world, _copy_topo, copy_deployment = pickle.loads(blob)
    assert copy_deployment.ready() == deployment.ready()
    assert copy_world.sim.now == world.sim.now
    for w in (world, copy_world):
        w.run_for(300 * MILLISECOND)
    assert copy_world.sim.events_processed == world.sim.events_processed
    assert run_digest(copy_world.trace, {}) == run_digest(world.trace, {})


# ----------------------------------------------------------------------
# the store: what is shared, what is kept
# ----------------------------------------------------------------------
def test_only_recurring_keys_are_snapshotted_and_one_blob_is_kept():
    built = []

    def cold():
        built.append(object())
        return ("world", len(built))

    snapshots = WorldSnapshots(["a", "a", "a", "c", "c", "lonely"])
    assert snapshots.converged("a", "s", cold) == ("world", 1)
    assert snapshots.converged("a", "s", cold) == ("world", 1)   # restored
    assert snapshots.converged("a", "s", cold) == ("world", 1)   # again
    assert snapshots.converged("lonely", "s", cold) == ("world", 2)
    assert snapshots.converged("lonely", "s", cold) == ("world", 3)
    assert snapshots.converged("a", "s", cold) == ("world", 1)   # still kept
    assert snapshots.converged("c", "s", cold) == ("world", 4)
    assert snapshots.converged("c", "s", cold) == ("world", 4)
    # one blob, the most recent key: "a" was evicted by "c"
    assert snapshots.converged("a", "s", cold) == ("world", 5)
    assert snapshots.notes == []


def test_world_key_separates_seed_timers_stack_and_fabric():
    from repro.core.config import MtpTimers
    from repro.stacks import StackTimers

    base = resolve_spec("mtp")
    key = world_key(two_pod_params(), base, 0)
    assert key == world_key("clos", base, 0)          # any spelling
    assert key == world_key(two_pod_params(), resolve_spec("mtp"), 0)
    others = {
        world_key(two_pod_params(), base, 1),
        world_key("vl2", base, 0),
        world_key(two_pod_params(), resolve_spec("mtp-spray"), 0),
        world_key(two_pod_params(), resolve_spec(
            "mtp", StackTimers(mtp=MtpTimers(jitter=0.1))), 0),
        world_key(two_pod_params(), base, 0, trace_enabled=False),
        world_key(two_pod_params(), base, 0, max_converge_us=1),
    }
    assert key not in others and len(others) == 6


# ----------------------------------------------------------------------
# the fallback: dumps or loads failing means cold, one note, same digest
# ----------------------------------------------------------------------
def _deploy_with_closure(topo, timers, **params):
    deployment = deploy_mtp_stack(topo, timers, **params)
    deployment.on_event = lambda: None   # what a careless plugin does
    return deployment


@pytest.fixture
def closure_stack():
    name = "mtp-closure"
    register_stack(StackDefinition(
        name=name, display="MR-MTP (unpicklable)",
        deploy=_deploy_with_closure,
        detection_bound_us=_mtp_detection_bound_us,
        keepalive_period_us=_mtp_keepalive_period_us,
        description="test-only: keeps a lambda on its deployment"))
    try:
        yield name
    finally:
        unregister_stack(name)


def test_unpicklable_stack_runs_cold_with_one_note(closure_stack):
    scenarios = [get_scenario(n) for n in ("tc1", "tc2", "tc3")]
    report = CampaignReport()
    shared = run_scenario_suite(two_pod_params(), scenarios,
                                [closure_stack], seed=2, report=report)
    cold = [run_scenario_task(spec) for spec in scenario_suite_specs(
        two_pod_params(), scenarios, [closure_stack], seed=2)]
    assert [o.digest for o in shared] == [o.digest for o in cold]
    assert len(report.notes) == 1, report.notes
    assert closure_stack in report.notes[0]
    assert "snapshot" in report.notes[0]


def test_damaged_blob_runs_cold_with_one_note():
    specs = scenario_suite_specs(
        two_pod_params(), [get_scenario(n) for n in ("tc1", "tc2", "tc3")],
        ["bgp-bfd"], seed=2)
    snapshots = WorldSnapshots(
        world_key(s.params, s.stack, s.seed) for s in specs)
    digests = [run_scenario_task(specs[0], snapshots).digest]
    key, blob = snapshots._kept
    snapshots._kept = key, blob[:len(blob) // 2]      # a truncated blob
    digests += [run_scenario_task(s, snapshots).digest for s in specs[1:]]
    assert digests == [run_scenario_task(s).digest for s in specs]
    assert len(snapshots.notes) == 1, snapshots.notes
    assert "bgp-bfd" in snapshots.notes[0] and "restore" in snapshots.notes[0]
