"""The world's forwarding version, held to what it promises every stack.

``Deployment.route_generation()`` is what ``ready()``, the fluid
workload's epoch sampler and the invariant monitor it drives ask "has
forwarding changed?".  On a 2-PoD Clos with a 15% lossy gray link, three
TC1 flaps and an agent crash and restart, stepped in fixed slices, the
version never falls, and it moves whenever any router's forwarding
candidates toward any rack moved — a gray-link depreference included.
"""

from __future__ import annotations

import pytest

from repro.harness.experiments import build_and_converge
from repro.harness.failures import FailureInjector
from repro.net.impairment import ImpairmentProfile
from repro.scenario.targets import gray_link
from repro.sim.units import MILLISECOND
from repro.stacks import available_stacks
from repro.topology.clos import two_pod_params

SLICE_US = 20 * MILLISECOND
RUN_US = 5200 * MILLISECOND


def candidates(topo, deployment) -> dict:
    tors = topo.all_tors()
    return {(node, tor): deployment.fluid_candidates(node, tor, None)
            for node in deployment.agents for tor in tors if tor != node}


@pytest.mark.parametrize("stack", available_stacks())
def test_version_never_falls_and_moves_with_the_candidates(stack):
    world, topo, deployment = build_and_converge(two_pod_params(), stack)
    injector = FailureInjector(world, deployment)
    tor, iface, _ = gray_link(topo)
    injector.impair_link(tor, iface, ImpairmentProfile(loss=0.15))
    # the liveness stacks depreference the gray link 0.8 s (both stacks)
    # and 2.8 s (MR-MTP's far end) on: the faults land clear of that
    start = world.sim.now
    agent = topo.all_aggs()[-1]
    injector.crash_agent(agent, at=start + 1000 * MILLISECOND)
    injector.restart_agent(agent, at=start + 1400 * MILLISECOND)
    tc1 = topo.failure_cases()["TC1"]
    injector.flap_interface(tc1.node, tc1.interface, period_us=300_000,
                            count=3, start_at=start + 3200 * MILLISECOND)
    version, seen = deployment.route_generation(), candidates(topo, deployment)
    while world.sim.now < start + RUN_US:
        world.run_for(SLICE_US)
        now_version, now_seen = (deployment.route_generation(),
                                 candidates(topo, deployment))
        assert now_version >= version, world.sim.now
        if now_seen != seen:
            assert now_version != version, (world.sim.now, [
                key for key in seen if seen[key] != now_seen[key]])
        version, seen = now_version, now_seen
