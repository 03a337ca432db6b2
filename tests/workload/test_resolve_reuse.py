"""Property: a long-lived engine's re-resolve equals a cold resolve.

``FluidWorkload`` keeps ECMP digests for the life of the run and reuses
a rack pair's walk while nothing that walk read has changed.  Both are
only legal if they are invisible: after any interleaving of interface
and node faults and simulated time, the engine that lived through it
must hold exactly the paths, blackholes and survivals that a fresh
engine over the same flows resolves at that instant.  A cached digest
served under the wrong salt, or a walk reused across a change it should
have seen, breaks the equality.  The steps are the fabric machine's
rules (``test_fabric_machine``), and its invariant, checked after each
one, is where warm is compared with cold."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sim.units import MILLISECOND
from tests.integration.test_fabric_machine import machine_for

PICK = st.integers(min_value=0, max_value=10**6)
STEPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(("iface_down", "iface_up",
                                   "node_down", "node_up")), PICK),
        # 1 ms: the fault is in, the control plane has not reacted;
        # 400 ms: every stack has detected and reconverged
        st.tuples(st.just("run"), st.sampled_from((1, 30, 120, 400)))),
    min_size=1, max_size=10)


@pytest.mark.parametrize("stack", ["mtp", "bgp-bfd", "mtp-spray"])
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(pods=st.integers(min_value=2, max_value=4), steps=STEPS)
def test_warm_resolve_equals_cold_resolve(stack, pods, steps):
    machine = machine_for(stack)()
    machine.load(f"clos-{pods}", 0)
    machine.start_workload(600)
    for op, arg in steps:
        if op == "run":
            machine.run(arg * MILLISECOND)
        else:  # applied now, before the control plane can react
            machine.inject([(op, (False, 0), arg, 0)])
            machine.run(0)
        machine.agree()
