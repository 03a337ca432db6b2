"""Property: crash/restart schedules never lose bytes from the ledger.

Hypothesis draws a random schedule of agent crashes and restarts (any
router, cold, graceful or the stack's default, overlapping or redundant
— the injector's validated no-ops make every schedule legal) and plays
it through the fabric machine's rules (``test_fabric_machine``) under a
live fluid workload on converged clos, VL2 and DCell fabrics.  Whatever
the schedule does to forwarding, conservation must hold for the
permutation matrix in 10 ms epochs:
``offered == delivered + dropped + blackholed`` in every epoch, during
the schedule and after the machine's teardown restores everything."""

from __future__ import annotations

from dataclasses import astuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sim.units import MILLISECOND
from tests.integration.test_fabric_machine import machine_for

#: family -> (fabric, stack): every restart mode crosses every family
#: (graceful MR-MTP on clos, graceful BGP on VL2, cold hold-timer BGP
#: on DCell).
FAMILIES = {
    "clos": ("clos-2", "mtp-gr"),
    "vl2": ("vl2", "bgp-gr"),
    "dcell": ("dcell", "bgp"),
}
MODES = (None, False, True)  # ``restart_agent(cold=...)``: the machine's arg

DURATION_MS = 120

#: one schedule entry: victim index, crash time, outage length, mode
EVENTS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10**6),       # node pick
        st.integers(min_value=0, max_value=DURATION_MS // 2),  # crash ms
        st.integers(min_value=1, max_value=40),          # outage ms
        st.sampled_from(MODES),                          # cold
    ),
    min_size=1, max_size=3,
)

PROP_SETTINGS = settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.data_too_large],
)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@PROP_SETTINGS
@given(events=EVENTS, flows=st.integers(min_value=30, max_value=120))
def test_restart_schedules_preserve_byte_conservation(family, events,
                                                      flows):
    fabric, stack = FAMILIES[family]
    machine = machine_for(stack)()
    machine.load(fabric, 0)  # a fresh copy of the converged world
    machine.start_workload(flows, matrix="permutation", epoch_ms=10)
    machine.inject([
        fault for pick, crash_ms, outage_ms, cold in events
        for fault in (("agent_crash", (False, crash_ms * MILLISECOND),
                       pick, 0),
                      ("agent_restart",
                       (False, (crash_ms + outage_ms) * MILLISECOND),
                       pick, MODES.index(cold)))])
    machine.run(DURATION_MS * MILLISECOND)
    machine.agree()  # every closed epoch conserves; warm resolve == cold
    machine.teardown()  # restored and quiet; the final report conserves

    for fab in machine.fabrics:
        records = fab.workload.epoch_records
        assert records
        for start_us, end_us, offered, delivered, dropped, blackholed \
                in map(astuple, records):
            assert end_us >= start_us
            assert min(offered, delivered, dropped, blackholed) >= 0
            assert offered == pytest.approx(
                delivered + dropped + blackholed, abs=3)
