"""Property-based checks on the event engine's ordering guarantees."""

from __future__ import annotations

from hypothesis import example, given, strategies as st

from repro.sim.engine import Simulator

from tests.sim.reference_heap import heap_simulator


@given(st.lists(st.integers(min_value=0, max_value=10_000),
                min_size=1, max_size=200))
def test_events_fire_in_nondecreasing_time_order(times):
    sim = Simulator()
    fired = []
    for t in times:
        sim.schedule_at(t, lambda t=t: fired.append((sim.now, t)))
    sim.run()
    observed = [now for now, _ in fired]
    assert observed == sorted(observed)
    # the clock matches each event's scheduled time
    assert all(now == t for now, t in fired)
    assert len(fired) == len(times)


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=1000),
                          st.booleans()),
                min_size=1, max_size=100))
def test_cancelled_events_never_fire(entries):
    sim = Simulator()
    fired = []
    handles = []
    for i, (t, cancel) in enumerate(entries):
        handles.append((sim.schedule_at(t, fired.append, i), cancel))
    for handle, cancel in handles:
        if cancel:
            handle.cancel()
    sim.run()
    expected = [i for i, (_, cancel) in enumerate(entries) if not cancel]
    assert sorted(fired) == expected


@given(st.lists(st.integers(min_value=0, max_value=100), min_size=2,
                max_size=50))
def test_same_time_fifo_order(times):
    """Events at equal times fire in scheduling order (stable)."""
    sim = Simulator()
    t = 50
    fired = []
    for i in range(len(times)):
        sim.schedule_at(t, fired.append, i)
    sim.run()
    assert fired == list(range(len(times)))


@given(st.integers(min_value=1, max_value=500),
       st.integers(min_value=1, max_value=50))
def test_chained_timers_accumulate_exactly(period, count):
    sim = Simulator()
    fired = []

    def tick():
        fired.append(sim.now)
        if len(fired) < count:
            sim.schedule_after(period, tick)

    sim.schedule_after(period, tick)
    sim.run()
    assert fired == [period * (i + 1) for i in range(count)]


# ----------------------------------------------------------------------
# differential: the timer wheel must fire in EXACTLY the reference
# binary heap's order under arbitrary schedule/cancel/reschedule
# workloads — this is the determinism contract that keeps golden
# digests byte-identical.
# ----------------------------------------------------------------------
_ops = st.lists(
    st.one_of(
        # (op, delay/time, priority)
        st.tuples(st.just("at"), st.integers(min_value=0, max_value=1 << 34),
                  st.integers(min_value=-2, max_value=2)),
        st.tuples(st.just("after"),
                  st.integers(min_value=0, max_value=1 << 20),
                  st.integers(min_value=-2, max_value=2)),
        st.tuples(st.just("cancel"),
                  st.integers(min_value=0, max_value=200), st.just(0)),
        st.tuples(st.just("reschedule"),
                  st.integers(min_value=0, max_value=1 << 16), st.just(0)),
        # an event put back: ranked as if scheduled `flags >> 2` ticks
        # ago, under an earlier event's sequence number (flags & 1) or a
        # fresh one, due together with the latest event scheduled
        # (flags & 2) or within 300 ticks
        st.tuples(st.just("back"),
                  st.integers(min_value=0, max_value=1 << 20),
                  st.integers(min_value=0, max_value=15)),
    ),
    min_size=1, max_size=120,
)


def _run_workload(new_sim, ops, segments):
    sim = new_sim()
    fired = []
    handles = []

    def make_cb(tag, todo):
        def cb():
            fired.append((sim.now, tag))
            # nested operations exercise scheduling from callbacks
            for op, value, priority in todo:
                _apply(op, value, priority, tag)
        return cb

    def _apply(op, value, priority, tag):
        if op == "at" and value >= sim.now:
            handles.append(sim.schedule_at(value, make_cb((tag, value), ()),
                                           priority=priority))
        elif op == "after":
            handles.append(sim.schedule_after(
                value, make_cb((tag, "after", value), ()), priority=priority))
        elif op == "cancel" and handles:
            handles[value % len(handles)].cancel()
        elif op == "reschedule" and handles:
            handles[value % len(handles)].cancel()
            handles.append(sim.schedule_after(
                value + 1, make_cb((tag, "re", value), ())))
        elif op == "back":
            flags = priority
            reuse = (handles[value % len(handles)].seq
                     if handles and flags & 1 else None)
            # a reused seq is a re-armed timer's rank: as Timer.start
            # does, tombstone every live event still carrying it, or two
            # live events tie on (time, priority, born, seq) — a state
            # the engine never builds, and one the wheel and the
            # reference heap break apart differently
            for handle in handles:
                if handle.seq == reuse:
                    handle.cancel()
            time = (max(sim.now, handles[-1].time) if handles and flags & 2
                    else sim.now + value % 300)
            handles.append(sim.schedule_at(
                time, make_cb((tag, "back", value), ()),
                born=max(0, sim.now - (flags >> 2)), seq=reuse))

    # seed phase: the first few ops also become nested payloads
    for i, (op, value, priority) in enumerate(ops):
        nested = tuple(ops[i + 1:i + 3])
        if op in ("at", "after"):
            cb = make_cb(i, nested)
            if op == "at":
                handles.append(sim.schedule_at(value, cb, priority=priority))
            else:
                handles.append(sim.schedule_after(value, cb,
                                                  priority=priority))
        else:
            _apply(op, value, priority, i)

    for until_step, budget in segments:
        sim.run(until=sim.now + until_step, max_events=budget)
    sim.run(max_events=5000)
    return fired, sim.now, sim.events_processed


@given(_ops,
       st.lists(st.tuples(st.integers(min_value=0, max_value=1 << 30),
                          st.integers(min_value=0, max_value=40)),
                min_size=0, max_size=4))
@example(ops=[("at", 0, 0), ("at", 1, 0), ("back", 1, 1)], segments=[])
# at t=10 an event is scheduled for 15, then one is put back for 15 as
# of t=9: it was born first, so it fires first although its seq is later
@example(ops=[("at", 10, 0), ("after", 5, 0), ("back", 0, 6)], segments=[])
def test_wheel_matches_heap_firing_order(ops, segments):
    heap_result = _run_workload(heap_simulator, ops, segments)
    wheel_result = _run_workload(Simulator, ops, segments)
    assert wheel_result == heap_result
