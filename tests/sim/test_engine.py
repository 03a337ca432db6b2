"""Unit tests for the event engine: each runs on the timer wheel and on
the reference heap (``tests/sim/reference_heap.py``), so the reference
the wheel is checked against stays tested too."""

from __future__ import annotations

import pickle

import pytest

from repro.sim.engine import Simulator, SimulationError

from tests.sim.reference_heap import heap_simulator


@pytest.fixture(params=[Simulator, heap_simulator], ids=["wheel", "heap"])
def new_sim(request):
    return request.param


def test_events_fire_in_time_order(new_sim):
    sim = new_sim()
    fired = []
    sim.schedule_at(30, fired.append, "c")
    sim.schedule_at(10, fired.append, "a")
    sim.schedule_at(20, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 30


def test_same_time_events_fire_in_scheduling_order(new_sim):
    sim = new_sim()
    fired = []
    for tag in range(10):
        sim.schedule_at(5, fired.append, tag)
    sim.run()
    assert fired == list(range(10))


def test_an_event_put_back_takes_the_rank_of_the_instant_it_stands_for(new_sim):
    """``born`` orders events due together by when they were scheduled,
    ``seq`` by the order within that instant; an event put back later
    with an earlier ``born`` (and a re-used ``seq``) fires where the
    original would have, also when it joins the instant being played."""
    sim = new_sim()
    fired = []
    first = sim.schedule_at(100, fired.append, "scheduled at 0, first")
    sim.schedule_at(100, fired.append, "scheduled at 0, second")
    first.cancel()
    sim.run(until=40)
    sim.schedule_at(100, fired.append, "scheduled at 41")

    def put_back():
        sim.schedule_at(100, fired.append, "put back as of 20", born=20)
        sim.schedule_at(100, fired.append, "put back as of 0, first",
                        born=0, seq=first.seq)

    sim.schedule_at(60, put_back)
    sim.schedule_at(100, lambda: sim.schedule_at(
        100, fired.append, "joined the instant as of 30", born=30), born=25)
    sim.run()
    assert fired == ["put back as of 0, first", "scheduled at 0, second",
                     "put back as of 20", "joined the instant as of 30",
                     "scheduled at 41"]
    assert sim.events_scheduled == 8


def test_has_passed_follows_the_order_of_dispatch(new_sim):
    sim = new_sim()
    seen = {}

    def look(tag):
        seen[tag] = (sim.has_passed(99, 0), sim.has_passed(100, 10),
                     sim.has_passed(100, 50), sim.has_passed(101, 0))

    assert not sim.has_passed(0, 0)  # nothing has run yet
    sim.schedule_at(100, look, "scheduled at 0")
    sim.run(until=30)
    sim.schedule_at(100, look, "scheduled after 30")
    sim.run(until=100)
    assert seen["scheduled at 0"] == (True, False, False, False)
    assert seen["scheduled after 30"] == (True, True, False, False)
    # between runs the whole instant has been played
    assert sim.has_passed(100, 50) and sim.has_passed(100, 100)
    assert not sim.has_passed(101, 0)


def test_has_passed_takes_the_rank(new_sim):
    """Among events due and born together the sequence number decides,
    and every priority-0 event of an instant precedes a later priority."""
    sim = new_sim()
    seen = {}

    def look(tag):
        seen[tag] = (sim.has_passed(100, 0, 0), sim.has_passed(100, 0, 2),
                     sim.has_passed(100, 0, 5), sim.has_passed(100, 0),
                     sim.has_passed(100, 40, 0))

    sim.schedule_at(5, lambda: None)  # seq 0
    sim.schedule_at(100, look, "seq 1")
    sim.schedule_at(100, look, "priority 1", priority=1)
    sim.run()
    assert seen["seq 1"] == (True, False, False, False, False)
    assert seen["priority 1"] == (True, True, True, True, True)


def test_priority_breaks_ties_before_seq(new_sim):
    sim = new_sim()
    fired = []
    sim.schedule_at(5, fired.append, "late", priority=1)
    sim.schedule_at(5, fired.append, "early", priority=0)
    sim.run()
    assert fired == ["early", "late"]


def test_schedule_after_is_relative(new_sim):
    sim = new_sim()
    times = []
    sim.schedule_after(10, lambda: times.append(sim.now))
    sim.run()
    assert times == [10]


def test_nested_scheduling_from_callback(new_sim):
    sim = new_sim()
    fired = []

    def outer():
        fired.append(("outer", sim.now))
        sim.schedule_after(5, inner)

    def inner():
        fired.append(("inner", sim.now))

    sim.schedule_at(10, outer)
    sim.run()
    assert fired == [("outer", 10), ("inner", 15)]


def test_cancel_prevents_firing(new_sim):
    sim = new_sim()
    fired = []
    handle = sim.schedule_at(10, fired.append, "x")
    handle.cancel()
    sim.run()
    assert fired == []
    assert not handle.active


def test_cancel_twice_is_safe(new_sim):
    sim = new_sim()
    handle = sim.schedule_at(10, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_run_until_stops_and_advances_clock(new_sim):
    sim = new_sim()
    fired = []
    sim.schedule_at(10, fired.append, "a")
    sim.schedule_at(100, fired.append, "b")
    sim.run(until=50)
    assert fired == ["a"]
    assert sim.now == 50
    sim.run()
    assert fired == ["a", "b"]


def test_run_until_advances_clock_even_when_queue_empty(new_sim):
    sim = new_sim()
    sim.run(until=123)
    assert sim.now == 123


def test_scheduling_in_past_raises(new_sim):
    sim = new_sim()
    sim.schedule_at(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5, lambda: None)


def test_negative_delay_raises(new_sim):
    sim = new_sim()
    with pytest.raises(SimulationError):
        sim.schedule_after(-1, lambda: None)


def test_max_events_budget(new_sim):
    sim = new_sim()
    fired = []
    for i in range(10):
        sim.schedule_at(i, fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_call_soon_runs_at_current_time(new_sim):
    sim = new_sim()
    times = []

    def first():
        sim.call_soon(lambda: times.append(sim.now))

    sim.schedule_at(7, first)
    sim.run()
    assert times == [7]


def test_events_processed_counter(new_sim):
    sim = new_sim()
    for i in range(5):
        sim.schedule_at(i, lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_pending_events_excludes_cancelled(new_sim):
    sim = new_sim()
    sim.schedule_at(1, lambda: None)
    h = sim.schedule_at(2, lambda: None)
    h.cancel()
    assert sim.pending_events == 1


# ----------------------------------------------------------------------
# tombstone cancellation semantics (the wheel must keep the O(1)
# flag behaviour of the reference heap's handles)
# ----------------------------------------------------------------------
def test_cancel_after_firing_is_safe(new_sim):
    sim = new_sim()
    fired = []
    handle = sim.schedule_at(5, fired.append, "x")
    sim.run()
    assert fired == ["x"]
    handle.cancel()  # no error, no effect
    handle.cancel()
    assert not handle.active
    sim.run()
    assert fired == ["x"]


def test_cancel_is_constant_time_flag_flip(new_sim):
    """cancel() must not touch the queue: depth (which counts resident
    tombstones) is unchanged, pending_events (live view) drops."""
    sim = new_sim()
    handles = [sim.schedule_at(1000 + i, lambda: None) for i in range(100)]
    depth_before = sim.queue_depth
    for h in handles:
        h.cancel()
    assert sim.queue_depth == depth_before  # still resident as tombstones
    assert sim.pending_events == 0
    sim.run()
    assert sim.events_processed == 0


def test_cancelled_timer_discarded_without_firing(new_sim):
    sim = new_sim()
    fired = []
    keep = sim.schedule_at(50, fired.append, "keep")
    kill = sim.schedule_at(50, fired.append, "kill")
    kill.cancel()
    sim.run()
    assert fired == ["keep"]
    assert keep.active  # fired events are not retroactively tombstoned
    assert not kill.active


def test_cancel_mid_batch_from_earlier_event(new_sim):
    """An event can cancel a same-tick later event while the batch is
    being dispatched."""
    sim = new_sim()
    fired = []
    later = sim.schedule_at(10, fired.append, "later")
    sim.schedule_at(10, lambda: later.cancel(), priority=-1)
    sim.run()
    assert fired == []


def test_reschedule_pattern_dead_timer(new_sim):
    """The keepalive idiom: cancel + re-arm on every tick; only the last
    armed timer may fire."""
    sim = new_sim()
    expired = []
    state = {"handle": None}

    def arm():
        if state["handle"] is not None:
            state["handle"].cancel()
        state["handle"] = sim.schedule_after(300, expired.append, sim.now)

    for t in range(0, 1000, 100):
        sim.schedule_at(t, arm)
    sim.run()
    assert expired == [900]  # only the final arm survived


# ----------------------------------------------------------------------
# wheel-specific shapes
# ----------------------------------------------------------------------
def test_far_horizon_events_fire_in_order(new_sim):
    """Events beyond the wheel's 2^32-tick horizon take the fallback path
    but must stay in exact (time, priority, seq) order."""
    sim = new_sim()
    fired = []
    sim.schedule_at(1 << 40, fired.append, "far")
    sim.schedule_at((1 << 40) - 1, fired.append, "nearer")
    sim.schedule_at(5, fired.append, "soon")
    sim.run()
    assert fired == ["soon", "nearer", "far"]
    assert sim.now == 1 << 40


def test_until_cut_then_behind_window_schedule(new_sim):
    """Scheduling between an until-bounded run and the next run must stay
    ordered even when the wheel already advanced past that window."""
    sim = new_sim()
    fired = []
    sim.schedule_at(100_000, fired.append, "a")
    sim.schedule_at(70_000_000, fired.append, "z")
    sim.run(until=60_000_000)
    assert fired == ["a"]
    # now == 60e6; the wheel's coarse windows have advanced.  These land
    # behind/around them and must still fire in time order.
    sim.schedule_at(60_000_001, fired.append, "b")
    sim.schedule_at(65_000_000, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c", "z"]


def test_queue_depth_counts_tombstones_until_discarded(new_sim):
    sim = new_sim()
    h = [sim.schedule_at(10, lambda: None) for _ in range(10)]
    for handle in h[5:]:
        handle.cancel()
    assert sim.queue_depth == 10
    sim.run()
    assert sim.queue_depth == 0
    assert sim.events_processed == 5


def test_peak_queue_depth_high_water(new_sim):
    sim = new_sim()
    for i in range(50):
        sim.schedule_at(i, lambda: None)
    sim.run()
    assert sim.peak_queue_depth >= 50
    assert sim.queue_depth == 0


def test_budget_pause_then_same_tick_schedule(new_sim):
    """Resuming after a max_events cut must preserve ordering for events
    scheduled at the paused tick."""
    sim = new_sim()
    fired = []
    for i in range(4):
        sim.schedule_at(10, fired.append, i)
    sim.run(max_events=2)
    assert fired == [0, 1]
    assert sim.now == 10
    sim.schedule_at(10, fired.append, "late")  # joins the paused tick
    sim.run()
    assert fired == [0, 1, 2, 3, "late"]


def test_a_pickled_queue_carries_no_tombstones(new_sim):
    """Cancelled events are left out of a pickle and counted as
    discarded: the copy's ``queue_depth`` is its live count, and it fires
    exactly what the original fires, in the same order."""
    sim = new_sim()
    fired = []
    times = [7, 7, 300, 70_000, 20_000_000, 1 << 40, 300, 7, 5_000_000_000]
    handles = [sim.schedule_at(t, fired.append, i)
               for i, t in enumerate(times)]
    sim.run(until=1)
    handles.append(sim.schedule_at(2, fired.append, "behind"))
    for handle in handles[1:-1:2]:
        handle.cancel()
    copy, copy_fired = pickle.loads(pickle.dumps((sim, fired)))
    assert sim.queue_depth == len(handles) > sim.pending_events == 6
    assert copy.queue_depth == copy.pending_events == 6
    for s in (sim, copy):
        s.run()
        assert s.queue_depth == s.pending_events == 0
    assert copy_fired == fired == ["behind", 0, 2, 6, 4, 8]
    assert copy.now == sim.now == 5_000_000_000
