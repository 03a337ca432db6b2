"""A world lives as long as its task (DESIGN §7 "World lifetime").

Campaign tasks run with automatic cyclic collection paused, which is safe
only while a run makes next to no cyclic garbage besides its world: the
premise is measured here, so a change that starts making cycles on every
event fails a test instead of leaking under the pause.  And whatever
happens inside, :func:`run_tasks` leaves the collector as it found it.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import pytest

from repro.harness import executor, experiments, fork
from repro.harness.convergence import converge_from_cold
from repro.harness.executor import (
    CampaignInterrupted,
    RetryPolicy,
    TaskKind,
    run_tasks,
)
from repro.scenario import LIBRARY, run_scenario
from repro.scenario.runner import (
    converge_world,
    scenario_task_key,
    scenario_task_label,
    scenario_world_key,
)
from repro.topology.clos import ClosParams

#: cyclic garbage one finished run may leave besides its world (152 at
#: most here when the pause was introduced: rolling-restart on bgp-bfd)
GARBAGE_BOUND = 500


def _garbage_beside_world(spec, world=None):
    """A task reporting what one collection reclaims with its finished
    world still referenced."""
    _metrics, world = run_scenario(spec.scenario, spec.params, spec.stack,
                                   spec.seed, return_world=True, world=world)
    return spec.scenario.name, gc.collect()  # ``world`` still held


GARBAGE_KIND = TaskKind(name="garbage", run=_garbage_beside_world,
                        key=scenario_task_key, encode=list, decode=tuple,
                        label=scenario_task_label,
                        world_key=scenario_world_key,
                        converge=converge_world)


@pytest.mark.parametrize("stack", ["mtp", "bgp-bfd", "mtp-gr", "bgp-gr"])
def test_a_finished_run_leaves_next_to_no_cyclic_garbage(stack):
    """Every library scenario at 4 PoDs, run as a campaign runs them
    (one world converged, twelve runs forked from it, the last on it):
    with the finished world still referenced, one collection reclaims at
    most ``GARBAGE_BOUND`` objects."""
    specs = LIBRARY.expand(ClosParams(num_pods=4), [stack])
    garbage = dict(run_tasks(GARBAGE_KIND, specs))
    assert max(garbage.values()) <= GARBAGE_BOUND, garbage


# ----------------------------------------------------------------------
# the collector's state: as found, whatever the tasks did
# ----------------------------------------------------------------------
def _collector_state(spec) -> tuple[bool, bool]:
    """A task reporting whether it ran paused: (enabled, anything frozen)."""
    if spec == "raise":
        raise RuntimeError("task failed")
    if spec == "interrupt":
        raise KeyboardInterrupt
    return gc.isenabled(), gc.get_freeze_count() > 0


KIND = TaskKind(name="collector-state", run=_collector_state, key=str,
                encode=list, decode=tuple, label=str)


def _shared_collector_state(spec, world):
    return _collector_state(spec)


def _one_world(spec) -> str:
    return "one"


#: the same tasks sharing one world: all but the last forked
SHARED_KIND = TaskKind(name="shared-collector-state",
                       run=_shared_collector_state, key=str, encode=list,
                       decode=tuple, label=str, world_key=_one_world,
                       converge=list)


def _state() -> tuple[bool, int]:
    """(enabled, frozen) — a frozen object that dies leaves the permanent
    generation, so of a nonzero freeze count only its sign is stable."""
    return gc.isenabled(), min(gc.get_freeze_count(), 1)


@pytest.fixture(params=["enabled", "disabled", "frozen"])
def collector(request):
    """The state a caller may leave the collector in; restored after."""
    enabled = gc.isenabled()
    if request.param == "disabled":
        gc.disable()
    if request.param == "frozen":
        gc.freeze()
    try:
        yield _state()
    finally:
        gc.unfreeze()
        if enabled:
            gc.enable()


@pytest.mark.parametrize("specs, raises", [
    (["a", "b", "c"], None),
    (["a", "raise", "c"], RuntimeError),
    (["a", "interrupt", "c"], CampaignInterrupted),
])
def test_run_tasks_leaves_the_collector_as_it_found_it(collector, specs,
                                                       raises):
    if raises is None:
        assert run_tasks(KIND, specs) == [(False, True)] * len(specs)
    else:
        with pytest.raises(raises):
            run_tasks(KIND, specs)
    assert _state() == collector


def test_a_converge_runs_paused_and_leaves_the_collector_as_found(
        collector, monkeypatch):
    """``build_and_converge`` outside a campaign: no collection while
    the world is built and converges, the collector as found after."""
    seen, during = [], []

    def converge(*args, **kwargs):
        during.append(gc.isenabled())
        return converge_from_cold(*args, **kwargs)

    def collected(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    monkeypatch.setattr(experiments, "converge_from_cold", converge)
    gc.callbacks.append(collected)
    try:
        experiments.build_and_converge(ClosParams(num_pods=2), "mtp")
    finally:
        gc.callbacks.remove(collected)
    assert during == [False]
    assert seen == []
    assert _state() == collector


@pytest.mark.parametrize("policy", [None, RetryPolicy(max_attempts=1)],
                         ids=["pool", "supervised"])
def test_every_strategy_runs_its_tasks_paused(policy):
    before = _state()
    outcomes = run_tasks(KIND, ["a", "b", "c"], jobs=2,
                         allow_oversubscribe=True, policy=policy)
    assert outcomes == [(False, True)] * 3
    assert _state() == before


def test_forked_tasks_run_paused():
    before = _state()
    assert run_tasks(SHARED_KIND, ["a", "b", "c"]) == [(False, True)] * 3
    assert _state() == before


def test_the_chunk_and_attempt_runners_pause_on_their_own():
    """The one child entry, behind ``harness.fork.fork_task``, pauses
    nothing itself: a child runs with the collector of the
    process that forked it.  So the scheduler pauses before it forks —
    a child forked from this unpaused process runs unpaused, one forked
    by ``run_sharing_worlds`` runs paused, fan-out or supervised — and
    this process's collector is left as found."""
    before = _state()
    children: dict = {}
    fork.fork_task(children, _collector_state, ("a",))
    while children:
        ended = fork.wait_any(children, None)
    assert pickle.loads(ended[0].blob) == (
        fork.OK, (gc.isenabled(), gc.get_freeze_count() > 0))
    for policy in (None, RetryPolicy(max_attempts=1)):
        assert executor.run_sharing_worlds(
            _collector_state, None, [(None, "a", "a"), (None, "b", "b")],
            jobs=2, policy=policy) == [(False, True)] * 2
    assert _state() == before


# ----------------------------------------------------------------------
# nothing is frozen that is already garbage
# ----------------------------------------------------------------------
class _World:
    """A stand-in world: cyclic garbage once its task has finished."""

    def __init__(self) -> None:
        self.me = self


_WORLDS: list[weakref.ref] = []


def _build_world(spec) -> tuple[bool, ...]:
    """A task building a world; reports which earlier worlds live on."""
    alive = tuple(ref() is not None for ref in _WORLDS)
    _WORLDS.append(weakref.ref(_World()))
    return alive


WORLD_KIND = TaskKind(name="world", run=_build_world, key=str, encode=list,
                      decode=tuple, label=str)


def test_the_last_world_of_a_campaign_is_freed_before_the_next_runs():
    """Back-to-back campaigns with no collection in between (the
    collector off, as a caller may leave it): the next campaign's first
    task finds the last world of the one before already freed, not
    frozen for the whole next campaign."""
    _WORLDS.clear()
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert run_tasks(WORLD_KIND, ["a", "b"]) == [(), (False,)]
        assert _WORLDS[-1]() is not None  # garbage, not collected yet
        assert run_tasks(WORLD_KIND, ["c"]) == [(False, False)]
    finally:
        if enabled:
            gc.enable()
