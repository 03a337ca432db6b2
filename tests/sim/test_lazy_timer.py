"""Differential: a kick that moves a deadline fires as an eager re-arm.

``repro.sim.timers.Timer`` keeps one queued event per timer and only
records a kick's ``(deadline, born)``; the event re-queues itself when it
comes due early.  Random schedules of ``start`` / ``restart`` / ``stop``
/ ``start_at`` over several timers, mixed with plain events and cut by
``until`` / ``max_events`` runs, must fire in exactly the order the
eager timer (``tests/sim/reference_timer.py``, the pre-change class)
gives them — ``(time, priority, born, rank)`` — with the same
``events_processed`` (a re-queue is not an event, nor spends a budget)
and the same deadlines read through ``Timer.deadline``.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, strategies as st

from repro.sim.engine import Simulator
from repro.sim.timers import Timer

from tests.sim import reference_timer

TIMERS = 4
KINDS = ("start", "restart", "stop", "start_at", "event", "interval")

#: (instant, kind, timer, a, b): ``kind`` applied to timer ``timer`` at
#: ``instant``; ``a`` / ``b`` are its numbers (an interval, a deadline
#: ahead of now, a born behind it, a plain event's delay)
_ops = st.lists(
    st.tuples(st.integers(0, 400), st.sampled_from(KINDS),
              st.integers(0, TIMERS - 1), st.integers(0, 60),
              st.integers(0, 40)),
    min_size=1, max_size=60)
#: timer i's interval, and whether its firing restarts it
_timers = st.lists(st.tuples(st.integers(1, 50), st.booleans()),
                   min_size=TIMERS, max_size=TIMERS)
_segments = st.lists(st.tuples(st.integers(0, 120), st.integers(0, 12)),
                     max_size=4)


def play(timer_cls, timers, ops, segments):
    """Firing order, and after each run the clock, events processed and
    each timer's ``(deadline, born)`` (None when stopped), under
    ``timer_cls``."""
    sim = Simulator()
    fired = []
    armed = []

    def fire(i, again):
        fired.append((sim.now, "timer", i))
        if again:
            armed[i].restart()

    for i, (interval, again) in enumerate(timers):
        armed.append(timer_cls(sim, interval,
                               lambda i=i, again=again: fire(i, again)))

    def apply(n, kind, i, a, b):
        timer, now = armed[i], sim.now
        if kind == "start":
            timer.start()
        elif kind == "restart":
            timer.restart()
        elif kind == "stop":
            timer.stop()
        elif kind == "start_at":
            timer.start_at(now + a, born=max(0, now - b))
        elif kind == "interval":  # a kick to another (maybe shorter) interval
            timer.start(a + 1)
        else:
            sim.schedule_after(a, lambda: fired.append((sim.now, "event", n)))

    for n, (at, kind, i, a, b) in enumerate(ops):
        sim.schedule_at(at, apply, n, kind, i, a, b)

    def deadlines():
        if timer_cls is reference_timer.Timer:
            return [(t._handle.time, t._handle.born) if t.running else None
                    for t in armed]
        return [t.deadline for t in armed]

    seen = []
    for until_step, budget in (*segments, (1000, None)):
        sim.run(until=sim.now + until_step, max_events=budget)
        seen.append((sim.now, sim.events_processed, deadlines()))
    return fired, seen


@given(_timers, _ops, _segments)
@example(timers=[(10, False)] * TIMERS,
         ops=[(0, "start", 0, 0, 0), (5, "restart", 0, 0, 0),
              (7, "event", 1, 8, 0)],
         segments=[])
def test_lazy_timer_fires_as_eager_rearm(timers, ops, segments):
    assert play(Timer, timers, ops, segments) == play(
        reference_timer.Timer, timers, ops, segments)


def test_deadline_is_read_through_the_accessor():
    """A kicked timer's queued event lags its deadline; the accessors
    report the deadline an eager re-arm would have queued."""
    sim = Simulator()
    timer = Timer(sim, 10, lambda: None)
    timer.start()
    sim.schedule_at(4, timer.restart)
    sim.run(until=6)
    assert timer.deadline == (14, 4) and timer.expires_at == 14
    assert timer._handle.time == 10  # still the first arming's event
    scheduled = sim.events_scheduled
    sim.run(until=12)  # the event came due at 10 and moved on
    assert timer.deadline == (14, 4) and timer._handle.time == 14
    assert sim.events_scheduled == scheduled and sim.events_processed == 1
    timer.stop()
    assert timer.deadline is None and timer.expires_at is None


def _fire_with_own_stamp(self):
    """The mutant: a re-queue ranked as if the kick came now."""
    handle = self._handle
    if handle.time != self._deadline or handle.born != self._born:
        self._born = self.sim._stamp
        self.sim.requeue_firing(handle, self._deadline, self._born)
        return
    self._handle = None
    self.callback()


def test_the_differential_catches_a_requeue_with_its_own_born(monkeypatch):
    """Kicked at 5, the timer is due at 15 ranked as born at 5; a plain
    event scheduled at 7 for 15 must fire after it.  A re-queue at 10
    that took its own stamp as ``born`` would rank the timer after the
    event."""
    args = ([(10, False)] * TIMERS,
            [(0, "start", 0, 0, 0), (5, "restart", 0, 0, 0),
             (7, "event", 1, 8, 0)], [])
    eager = play(reference_timer.Timer, *args)
    assert eager[0] == [(15, "timer", 0), (15, "event", 2)]
    assert play(Timer, *args) == eager
    monkeypatch.setattr(Timer, "_fire", _fire_with_own_stamp)
    with pytest.raises(AssertionError):
        assert play(Timer, *args) == eager
