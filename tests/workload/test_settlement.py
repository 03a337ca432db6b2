"""Property: settlement done in place books exactly what the ``np.where``
chains booked.

``FluidWorkload._settle`` and ``_drain`` compute ``rate x seconds`` once,
store through masks and ``out=``, and work out completion times on the
finishing subset only.  None of that may move a bit: an ``EpochRecord``
is a sum of two hundred-odd floats, NumPy sums pairwise, and a pairwise
sum depends on where in the array each term sits — so the ledgers here
are compared with ``==``, not ``approx``.  The arithmetic as it was is
kept verbatim below as the oracle."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from repro.harness.experiments import build_and_converge
from repro.sim.units import SECOND
from repro.topology.clos import ClosParams
from repro.workload.engine import EpochRecord, FluidWorkload
from repro.workload.fluid import link_loads
from repro.workload.spec import WorkloadSpec
from repro.workload.synth import synthesize

# wide enough that the ledgers' pairwise sums split into several blocks
N = 300
SPEC = WorkloadSpec(name="settlement", matrix="uniform", flows=N,
                    duration_ms=100)


@pytest.fixture(scope="module")
def fabric():
    world, topo, deployment = build_and_converge(
        ClosParams(num_pods=2), "mtp", seed=0)
    return topo, deployment, synthesize(SPEC, topo.rack_endpoints(),
                                        world.rng)


# ----------------------------------------------------------------------
# _settle and _drain as they were, verbatim, on a snapshot of the state
# they read; they return what they used to store.
# ----------------------------------------------------------------------
def reference_settle(state, rate, t_end):
    t0 = state.epoch_start
    active = (state.remaining > 0) & (state.arrival_abs < t_end)
    record = EpochRecord(start_us=t0, end_us=t_end, offered=0.0,
                         delivered=0.0, dropped=0.0, blackholed=0.0)
    fct_end = state.fct_end.copy()
    flow_blackhole_us = state.flow_blackhole_us.copy()
    assert active.any()
    start_eff = np.maximum(t0, state.arrival_abs)
    overlap = np.maximum(t_end - start_eff, 0) * active
    seconds = overlap / SECOND
    bh = state.blackholed_now
    surv = state.surv

    routed = active & ~bh
    potential = rate * seconds * surv
    before = state.remaining.copy()
    delivered_now = np.where(routed,
                             np.minimum(potential, before), 0.0)
    injected = np.where(
        surv > 0, delivered_now / np.maximum(surv, 1e-300),
        rate * seconds)
    injected = np.where(routed, injected, 0.0)
    dropped_now = injected - delivered_now
    remaining = before - delivered_now

    done = routed & (potential >= before) & (potential > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_done = start_eff + np.where(
            done, before / np.maximum(rate * surv / SECOND, 1e-300),
            0.0)
    fct_end[done] = t_done[done]

    bh_active = active & bh
    injected_bh = np.where(bh_active, rate * seconds, 0.0)
    flow_blackhole_us[bh_active] += overlap[bh_active]

    record.delivered = float(delivered_now.sum())
    record.dropped = float(dropped_now.sum())
    record.blackholed = float(injected_bh.sum())
    record.offered = (record.delivered + record.dropped
                      + record.blackholed)
    loads = link_loads(state.problem, rate * active)
    return record, remaining, fct_end, flow_blackhole_us, loads


def reference_drain(state, rate, t_end):
    open_flows = (state.remaining > 0) & ~state.blackholed_now \
        & (state.surv > 0)
    assert open_flows.any()
    fct_end = state.fct_end.copy()
    movable = open_flows & (rate > 0)
    start_eff = np.maximum(t_end, state.arrival_abs)
    surv = state.surv
    before = state.remaining.copy()
    injected = np.where(movable, before / np.maximum(surv, 1e-300),
                        0.0)
    delivered_now = np.where(movable, before, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_done = start_eff + np.where(
            movable, before / np.maximum(rate * surv / SECOND, 1e-300),
            0.0)
    fct_end[movable] = t_done[movable]
    remaining = np.where(movable, 0.0, state.remaining)
    record = EpochRecord(
        start_us=t_end, end_us=t_end,
        offered=float(injected.sum()),
        delivered=float(delivered_now.sum()),
        dropped=float((injected - delivered_now).sum()),
        blackholed=0.0)
    return record, remaining, fct_end


# ----------------------------------------------------------------------
# drawn states
# ----------------------------------------------------------------------
T0, SPAN_MAX = 5_000_000, 200_000
BYTES = st.one_of(st.sampled_from([0.0, 1.0, 1500.0, 2e4, 1e7]),
                  st.floats(0.0, 1e9))
RATES = st.one_of(st.sampled_from([0.0, 0.0, 1.25e9, 1.25e9 / 3]),
                  st.floats(0.0, 1.25e9))
SURVIVAL = st.one_of(st.sampled_from([1.0, 1.0, 1.0, 0.0, 0.97, 1e-12]),
                     st.floats(0.0, 1.0))


def column(dtype, elements):
    return arrays(dtype, N, elements=elements)


@st.composite
def states(draw, fabric):
    """An engine part-way through a run — some flows not yet arrived,
    some arriving inside the epoch, some finished, some blackholed, some
    on lossy paths down to survival 0.0 — the rate vector a solve would
    give it (exactly 0.0 for every flow not active, zero for some that
    are), and for a drawn subset what is left made equal to what the
    epoch can carry, bit for bit."""
    topo, deployment, flows = fabric
    engine = FluidWorkload(SPEC, topo, deployment, flows=flows)
    engine._resolve()
    t_end = T0 + draw(st.integers(1, SPAN_MAX))
    engine._epoch_start = T0
    engine.arrival_abs = T0 + draw(column(
        np.int64, st.integers(-SPAN_MAX, 2 * SPAN_MAX)))
    engine.remaining = draw(column(np.float64, BYTES))
    engine._blackholed_now = draw(column(np.bool_, st.booleans()))
    engine._surv = draw(column(np.float64, SURVIVAL))
    engine._surv[engine._blackholed_now] = 0.0
    engine.fct_end = np.where(engine.remaining > 0, -1.0, float(T0))
    engine.flow_blackhole_us = draw(column(np.int64, st.integers(0, 10**6)))
    rate = draw(column(np.float64, RATES))

    tie = draw(column(np.bool_, st.booleans()))
    seconds = np.maximum(
        t_end - np.maximum(T0, engine.arrival_abs), 0) / SECOND
    engine.remaining = np.where(tie, rate * seconds * engine._surv,
                                engine.remaining)
    return engine, rate, t_end


def snapshot(engine) -> SimpleNamespace:
    return SimpleNamespace(
        epoch_start=engine._epoch_start, problem=engine.problem,
        remaining=engine.remaining.copy(),
        arrival_abs=engine.arrival_abs.copy(),
        fct_end=engine.fct_end.copy(),
        flow_blackhole_us=engine.flow_blackhole_us.copy(),
        blackholed_now=engine._blackholed_now.copy(),
        surv=engine._surv.copy())


def solver_giving(rate):
    """What ``max_min_rates`` guarantees and settlement relies on: a
    flow outside the solve gets exactly 0.0."""
    return lambda active: np.where(active, rate, 0.0)


# the oracles divide at full width — by the 1e-300 floor too, for flows
# they go on to mask out
OVERFLOW_IS_EXPECTED = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning")


@OVERFLOW_IS_EXPECTED
@given(data=st.data())
def test_settle_books_what_the_where_chains_booked(fabric, data):
    engine, rate, t_end = data.draw(states(fabric))
    before = snapshot(engine)
    active = (before.remaining > 0) & (before.arrival_abs < t_end)
    if not active.any():
        return
    engine._solve = solver_giving(rate)
    record, remaining, fct_end, blackhole_us, loads = reference_settle(
        before, engine._solve(active), t_end)
    totals = (engine.delivered, engine.dropped, engine.blackholed)

    engine._settle(t_end)

    assert engine.epoch_records[-1] == record   # exact, float for float
    assert np.array_equal(engine.remaining, remaining)
    assert np.array_equal(engine.fct_end, fct_end)
    assert np.array_equal(engine.flow_blackhole_us, blackhole_us)
    assert (engine.delivered, engine.dropped, engine.blackholed) == (
        totals[0] + record.delivered, totals[1] + record.dropped,
        totals[2] + record.blackholed)
    assert np.array_equal(
        engine._peak_util,
        loads / np.maximum(engine.problem.capacity, 1e-300))
    # settlement read these, it does not own them
    assert np.array_equal(engine.arrival_abs, before.arrival_abs)
    assert np.array_equal(engine._surv, before.surv)
    assert np.array_equal(engine._blackholed_now, before.blackholed_now)


@OVERFLOW_IS_EXPECTED
@given(data=st.data())
def test_drain_books_what_the_where_chains_booked(fabric, data):
    engine, rate, t_end = data.draw(states(fabric))
    before = snapshot(engine)
    open_flows = (before.remaining > 0) & ~before.blackholed_now \
        & (before.surv > 0)
    if not open_flows.any():
        return
    engine._solve = solver_giving(rate)
    record, remaining, fct_end = reference_drain(
        before, engine._solve(open_flows), t_end)

    engine._drain(t_end)

    assert engine.epoch_records[-1] == record   # exact, float for float
    assert np.array_equal(engine.remaining, remaining)
    assert np.array_equal(engine.fct_end, fct_end)
    assert np.array_equal(engine._surv, before.surv)
