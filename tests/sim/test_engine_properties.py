"""Property-based checks on the event engine's ordering guarantees."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.sim.engine import Simulator


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
