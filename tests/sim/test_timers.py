"""Timer behaviour, including the dead-timer 'kick' idiom."""

from __future__ import annotations

import pytest

from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.timers import PeriodicTimer, Timer


def test_timer_fires_after_interval():
    sim = Simulator()
    fired = []
    timer = Timer(sim, 100, lambda: fired.append(sim.now))
    timer.start()
    sim.run()
    assert fired == [100]


def test_timer_restart_postpones_firing():
    """The dead-timer pattern: each keepalive kicks the timer."""
    sim = Simulator()
    fired = []
    timer = Timer(sim, 100, lambda: fired.append(sim.now))
    timer.start()
    for t in (50, 100, 150):
        sim.schedule_at(t, timer.restart)
    sim.run()
    assert fired == [250]


def test_timer_stop():
    sim = Simulator()
    fired = []
    timer = Timer(sim, 100, lambda: fired.append(sim.now))
    timer.start()
    sim.schedule_at(50, timer.stop)
    sim.run()
    assert fired == []
    assert not timer.running


def test_timer_running_and_expiry_properties():
    sim = Simulator()
    timer = Timer(sim, 100, lambda: None)
    assert not timer.running
    assert timer.expires_at is None
    timer.start()
    assert timer.running
    assert timer.expires_at == 100


def test_timer_interval_override_on_start():
    sim = Simulator()
    fired = []
    timer = Timer(sim, 100, lambda: fired.append(sim.now))
    timer.start(interval=30)
    sim.run()
    assert fired == [30]


def test_timer_rejects_bad_interval():
    sim = Simulator()
    with pytest.raises(ValueError):
        Timer(sim, 0, lambda: None)


def test_periodic_timer_fires_repeatedly():
    sim = Simulator()
    fired = []
    timer = PeriodicTimer(sim, 50, lambda: fired.append(sim.now))
    timer.start()
    sim.run(until=220)
    assert fired == [50, 100, 150, 200]


def test_periodic_timer_stop_from_callback():
    sim = Simulator()
    fired = []
    timer = PeriodicTimer(sim, 50, lambda: (fired.append(sim.now), timer.stop()))
    timer.start()
    sim.run(until=500)
    assert fired == [50]


def test_periodic_timer_jitter_stays_in_bfd_band():
    """RFC 5880: each period is uniform in [0.75, 1.0] x interval."""
    sim = Simulator()
    rng = RngRegistry(7).stream("jitter")
    fired = []
    timer = PeriodicTimer(sim, 1000, lambda: fired.append(sim.now),
                          jitter=0.25, rng=rng)
    timer.start()
    sim.run(until=100_000)
    gaps = [b - a for a, b in zip(fired, fired[1:])]
    assert gaps, "timer never refired"
    assert all(750 <= g <= 1000 for g in gaps)
    assert len(set(gaps)) > 1, "jitter should vary the period"


def test_periodic_timer_jitter_requires_rng():
    sim = Simulator()
    with pytest.raises(ValueError):
        PeriodicTimer(sim, 100, lambda: None, jitter=0.5)


def test_periodic_timer_immediate_start():
    sim = Simulator()
    fired = []
    timer = PeriodicTimer(sim, 50, lambda: fired.append(sim.now))
    timer.start(immediate=True)
    sim.run(until=120)
    assert fired == [0, 50, 100]


def test_periodic_set_interval_takes_effect_next_cycle():
    sim = Simulator()
    fired = []
    timer = PeriodicTimer(sim, 50, lambda: fired.append(sim.now))
    timer.start()
    sim.schedule_at(60, timer.set_interval, 100)
    sim.run(until=320)
    assert fired == [50, 100, 200, 300]


def test_timers_kicked_together_fire_in_the_order_first_started():
    """A timer keeps the sequence number of its first start, so two
    deadlines armed in the same instant resolve the same way whichever
    was kicked last — and ``start_at`` re-arms one after the fact, for
    the instant and with the rank a ``start()`` back then would have."""
    sim = Simulator()
    fired = []
    one = Timer(sim, 100, lambda: fired.append("one"))
    two = Timer(sim, 100, lambda: fired.append("two"))
    one.start()
    two.start()
    sim.run(until=50)
    two.restart()
    one.restart()
    sim.run()
    assert fired == ["one", "two"] and sim.now == 150
    two.start()
    sim.run(until=200)
    one.start_at(250, born=150)
    assert one.expires_at == two.expires_at == 250
    sim.run()
    assert fired == ["one", "two", "one", "two"]


def test_periodic_timer_resumes_in_its_place():
    sim = Simulator()
    fired = []
    timers = [PeriodicTimer(sim, 50, lambda tag=tag: fired.append(tag))
              for tag in "abc"]
    for timer in timers:
        timer.start()
    sim.run(until=100)
    timers[0].stop()                       # "a" sits out the firing at 150
    sim.run(until=170)
    timers[0].start_at(200, born=150)      # as if it had fired at 150
    sim.run(until=250)
    assert fired == list("abc" * 2 + "bc" + "abc" * 2)
