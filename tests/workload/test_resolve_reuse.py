"""Property: a long-lived engine's re-resolve equals a cold resolve.

``FluidWorkload`` keeps ECMP digests for the life of the run and reuses
a rack pair's walk while nothing that walk read has changed.  Both are
only legal if they are invisible: after any interleaving of interface
and node faults and simulated time, the engine that lived through it
must hold exactly the paths, blackholes and survivals that a fresh
engine over the same flows resolves at that instant.  A cached digest
served under the wrong salt, or a walk reused across a change it should
have seen, breaks the equality."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.harness.experiments import build_and_converge
from repro.harness.failures import FailureInjector
from repro.harness.sweep import fabric_failure_points
from repro.sim.units import MILLISECOND
from repro.topology.clos import ClosParams
from repro.workload.engine import FluidWorkload
from repro.workload.spec import WorkloadSpec
from repro.workload.synth import synthesize

SPEC = WorkloadSpec(name="warm-cold", matrix="uniform", flows=600,
                    duration_ms=2000, epoch_ms=25)

PICK = st.integers(min_value=0, max_value=10**6)
STEPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(("iface_down", "iface_up",
                                   "node_crash", "node_restart")), PICK),
        # 1 ms: the fault is in, the control plane has not reacted;
        # 400 ms: every stack has detected and reconverged
        st.tuples(st.just("run"), st.sampled_from((1, 30, 120, 400)))),
    min_size=1, max_size=10)


def apply_step(world, topo, injector, step) -> None:
    op, arg = step
    if op == "run":
        world.run_for(arg * MILLISECOND)
    elif op in ("iface_down", "iface_up"):
        points = fabric_failure_points(topo)
        point = points[arg % len(points)]
        call = (injector.fail_interface if op == "iface_down"
                else injector.restore_interface)
        call(point.node, point.interface)
    else:
        routers = topo.routers()
        call = (injector.fail_node if op == "node_crash"
                else injector.restore_node)
        call(routers[arg % len(routers)])


def captured(engine: FluidWorkload):
    """The capture as comparable arrays.  Link ids are handed out in
    discovery order, which differs between a warm and a cold engine, so
    links are compared by name."""
    problem = engine.problem
    names = np.array([engine.link_name(i)
                      for i in range(len(problem.capacity))])
    return (names[problem.flow_links], problem.flow_ptr,
            engine._blackholed_now, engine._surv)


@pytest.mark.parametrize("stack", ["mtp", "bgp-bfd", "mtp-spray"])
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(pods=st.integers(min_value=2, max_value=4), steps=STEPS)
def test_warm_resolve_equals_cold_resolve(stack, pods, steps):
    world, topo, deployment = build_and_converge(
        ClosParams(num_pods=pods), stack, seed=0)
    injector = FailureInjector(world, deployment)
    flows = synthesize(SPEC, topo.rack_endpoints(), world.rng)
    warm = FluidWorkload(SPEC, topo, deployment, flows=flows)
    warm.start()
    for step in steps:
        apply_step(world, topo, injector, step)
        warm.mark_epoch()
        cold = FluidWorkload(SPEC, topo, deployment, flows=flows)
        cold._resolve()
        for got, want in zip(captured(warm), captured(cold)):
            np.testing.assert_array_equal(got, want)
