"""RNG registry determinism and trace log querying."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry, uniform
from repro.sim.trace import TraceLog


def test_same_seed_same_stream():
    a = RngRegistry(5).stream("x").integers(0, 1 << 30, size=10)
    b = RngRegistry(5).stream("x").integers(0, 1 << 30, size=10)
    assert list(a) == list(b)


def test_different_names_are_independent():
    reg = RngRegistry(5)
    a = reg.stream("x").integers(0, 1 << 30, size=10)
    b = reg.stream("y").integers(0, 1 << 30, size=10)
    assert list(a) != list(b)


def test_new_stream_does_not_perturb_existing():
    reg1 = RngRegistry(5)
    s1 = reg1.stream("x")
    first = s1.integers(0, 1 << 30, size=5)

    reg2 = RngRegistry(5)
    reg2.stream("other")  # extra consumer created first
    s2 = reg2.stream("x")
    second = s2.integers(0, 1 << 30, size=5)
    assert list(first) == list(second)


_BOUND = st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False)


def _signed(x: float) -> tuple[float, float]:
    """Sort key putting -0.0 before 0.0: NumPy refuses ``uniform(0.0,
    -0.0)``, whose ``high - low`` is -0.0."""
    return x, math.copysign(1.0, x)


@given(seed=st.integers(0, 2**64 - 1), bounds=st.lists(
    st.tuples(_BOUND, _BOUND), min_size=1, max_size=20))
def test_uniform_helper_draws_what_generator_uniform_draws(seed, bounds):
    """The jitter helper is ``Generator.uniform`` bit for bit (which
    takes ``low <= high``), drawing as much of the stream: the same values
    from twin generators, then the same next value."""
    ours, numpy = np.random.default_rng(seed), np.random.default_rng(seed)
    for low, high in (sorted(b, key=_signed) for b in bounds):
        assert uniform(ours, low, high) == numpy.uniform(low, high)
    assert ours.random() == numpy.random()


def test_stream_is_cached():
    reg = RngRegistry(0)
    assert reg.stream("a") is reg.stream("a")
    assert "a" in reg


def test_trace_emit_and_select():
    sim = Simulator()
    trace = TraceLog(sim)
    trace.emit("n1", "cat.a", "hello", k=1)
    sim.schedule_at(10, lambda: trace.emit("n2", "cat.b", "world"))
    sim.run()
    assert trace.count("cat.a") == 1
    assert trace.count("cat.b") == 1
    recs = list(trace.select(node="n2"))
    assert len(recs) == 1 and recs[0].time == 10


def test_trace_last_time_and_since():
    sim = Simulator()
    trace = TraceLog(sim)
    for t in (5, 15, 25):
        sim.schedule_at(t, lambda: trace.emit("n", "u", "m"))
    sim.run()
    assert trace.last_time("u") == 25
    assert trace.last_time("u", since=30) is None
    assert trace.count("u", since=10) == 2


def test_trace_listener_receives_live_records():
    sim = Simulator()
    trace = TraceLog(sim, enabled=False)  # listeners work even when not storing
    seen = []
    trace.add_listener(seen.append)
    trace.emit("n", "c", "m")
    assert len(seen) == 1
    assert trace.records == []


def test_trace_record_str_is_readable():
    sim = Simulator()
    trace = TraceLog(sim)
    trace.emit("T-1", "bgp.update", "sent", bytes=93)
    line = str(trace.records[0])
    assert "T-1" in line and "bgp.update" in line and "93" in line
