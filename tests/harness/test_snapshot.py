"""Converged worlds: picklability stays a stack contract, what is shared
is decided by the task list, and a task that cannot fork never changes a
result."""

from __future__ import annotations

import os
import pickle
from types import SimpleNamespace

import pytest

from repro.harness import executor, experiments
from repro.harness.digest import run_digest
from repro.harness.experiments import build_and_converge, world_key
from repro.harness.executor import (
    CampaignReport,
    run_sharing_worlds,
    run_tasks,
)
from repro.scenario import (
    LIBRARY,
    SCENARIO_RUN,
    get_scenario,
    run_scenario_task,
)
from repro.sim.units import MILLISECOND
from repro.stacks import (
    StackDefinition,
    available_stacks,
    register_stack,
    resolve_spec,
    unregister_stack,
)
from repro.stacks import mtp
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
# the groups: what is shared, what runs where
# ----------------------------------------------------------------------
def test_tasks_group_by_world_in_first_occurrence_order():
    """Tasks of one key share one converged world: groups in order of
    first occurrence, outcomes in task order, every task of a group but
    the last in a forked child, the last here on the world itself."""
    converged = []

    def converge(spec):
        converged.append(spec[0])
        return {"world": spec[0]}

    def run(spec, world):
        world.setdefault("ran", []).append(spec)   # a forked copy's own
        return spec, list(world["ran"]), os.getpid()

    specs = ["a1", "b1", "a2", "c1", "b2", "a3"]
    outcomes = run_sharing_worlds(run, converge,
                                  [(s[0], s, s) for s in specs])
    assert converged == ["a", "b", "c"]
    assert [o[0] for o in outcomes] == specs
    # each task saw the pristine world: no task sees another's mutations
    assert [o[1] for o in outcomes] == [[s] for s in specs]
    here = [o[0] for o in outcomes if o[2] == os.getpid()]
    assert here == ["c1", "b2", "a3"]


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
# an unpicklable plugin shares its world; no fork means in-process, one
# note, the same digests
# ----------------------------------------------------------------------
def _deploy_with_closure(topo, timers, **params):
    deployment = mtp.deploy(topo, timers, **params)
    deployment.on_event = lambda: None   # what a careless plugin does
    return deployment


@pytest.fixture
def closure_stack():
    name = "mtp-closure"
    family = SimpleNamespace(
        deploy=_deploy_with_closure, render_config=mtp.render_config,
        detection_bound_us=mtp.detection_bound_us,
        keepalive_period_us=mtp.keepalive_period_us)
    register_stack(StackDefinition(
        name=name, display="MR-MTP (unpicklable)",
        description="test-only: keeps a lambda on its deployment",
        family=family))
    try:
        yield name
    finally:
        unregister_stack(name)


def test_unpicklable_stack_runs_cold_with_one_note(closure_stack):
    """A forked task never pickles its world, so a plugin holding a
    closure shares one like any other stack: same digests as cold runs,
    and no note."""
    specs = LIBRARY.expand(
        two_pod_params(), [closure_stack], (2,),
        scenario=[get_scenario(n) for n in ("tc1", "tc2", "tc3")])
    report = CampaignReport()
    shared = run_tasks(SCENARIO_RUN, specs, report=report)
    cold = [run_scenario_task(spec) for spec in specs]
    assert [o.digest for o in shared] == [o.digest for o in cold]
    assert report.notes == []


def test_a_task_that_cannot_fork_runs_in_process_with_one_note(monkeypatch):
    """``os.fork`` raising is the fallback's case: each task runs here,
    the next one converges the world again, the report gets one note,
    and every digest is a cold run's."""
    specs = LIBRARY.expand(
        two_pod_params(), ["bgp-bfd"], (2,),
        scenario=[get_scenario(n) for n in ("tc1", "tc2", "tc3")])
    cold = [run_scenario_task(s).digest for s in specs]

    def no_fork():
        raise OSError(11, "Resource temporarily unavailable")

    converged = []
    real = experiments.converge_from_cold

    def counted(*args, **kwargs):
        converged.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(executor.os, "fork", no_fork)
    monkeypatch.setattr(experiments, "converge_from_cold", counted)
    report = CampaignReport()
    outcomes = run_tasks(SCENARIO_RUN, specs, report=report)
    assert [o.digest for o in outcomes] == cold
    assert len(converged) == 3
    assert len(report.notes) == 1, report.notes
    assert "fork unavailable" in report.notes[0]
    assert "Resource temporarily unavailable" in report.notes[0]
