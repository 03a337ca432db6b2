"""A world lives as long as its task (DESIGN §7 "World lifetime").

Campaign tasks run with automatic cyclic collection paused, which is safe
only while a run makes next to no cyclic garbage besides its world: the
premise is measured here, so a change that starts making cycles on every
event fails a test instead of leaking under the pause.  And whatever
happens inside, :func:`run_tasks` leaves the collector as it found it.
"""

from __future__ import annotations

import gc
import multiprocessing
import weakref

import pytest

from repro.harness import executor
from repro.harness.executor import (
    CampaignInterrupted,
    RetryPolicy,
    TaskKind,
    WorldSnapshots,
    one_world_at_a_time,
    run_tasks,
    world_key,
)
from repro.scenario import canonical_scenarios, run_scenario
from repro.scenario.runner import scenario_suite_specs
from repro.topology.clos import ClosParams

#: cyclic garbage one finished run may leave besides its world (152 at
#: most here when the pause was introduced: rolling-restart on bgp-bfd)
GARBAGE_BOUND = 500


@pytest.mark.parametrize("stack", ["mtp", "bgp-bfd", "mtp-gr", "bgp-gr"])
def test_a_finished_run_leaves_next_to_no_cyclic_garbage(stack):
    """Every library scenario at 4 PoDs, converged as a campaign does
    (the first cold, the rest restored): with the finished world still
    referenced, one collection reclaims at most ``GARBAGE_BOUND``
    objects."""
    specs = scenario_suite_specs(ClosParams(num_pods=4),
                                 list(canonical_scenarios().values()),
                                 [stack])
    snapshots = WorldSnapshots(world_key(s.params, s.stack, s.seed)
                               for s in specs)

    def garbage_beside_world(spec):
        _metrics, world = run_scenario(
            spec.scenario, spec.params, spec.stack, spec.seed,
            return_world=True, snapshots=snapshots)
        return spec.scenario.name, gc.collect()  # ``world`` still held

    garbage = dict(one_world_at_a_time(garbage_beside_world, specs))
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


@pytest.mark.parametrize("policy", [None, RetryPolicy(max_attempts=1)],
                         ids=["pool", "supervised"])
def test_every_strategy_runs_its_tasks_paused(policy):
    before = _state()
    outcomes = run_tasks(KIND, ["a", "b", "c"], jobs=2,
                         allow_oversubscribe=True, policy=policy)
    assert outcomes == [(False, True)] * 3
    assert _state() == before


def test_the_chunk_and_attempt_runners_pause_on_their_own():
    """The campaign's parent process runs no pool or supervised task and
    never pauses for them: the chunk runner and the attempt runner pause
    for their tasks themselves — run here, in a process that is not
    paused — and leave the collector as found."""
    before = _state()
    assert executor._run_chunk(_collector_state, ["a", "b"]) == [
        (False, True)] * 2
    receive, send = multiprocessing.Pipe(duplex=False)
    executor._attempt_child(_collector_state, "a", send)
    assert receive.recv() == (executor.OK, (False, True))
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
