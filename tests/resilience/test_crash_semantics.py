"""The split crash model of DESIGN §15: ``agent_crash`` kills protocol
state while the data plane forwards headless on the frozen FIB;
``node_crash`` is a power event that takes forwarding down with it and
cold-boots on restore.  Plus the injector's validated no-ops and the
single-record ``fail.node``/``restore.node`` tracing."""

from __future__ import annotations

import pytest

from repro.harness.experiments import build_and_converge
from repro.harness.failures import FailureInjector
from repro.sim.units import SECOND
from repro.topology.clos import two_pod_params

AGG = "S-1-1"


@pytest.fixture
def mtp_fabric():
    return build_and_converge(two_pod_params(), "mtp", seed=0)


def records(world, category, node=None):
    return [r for r in world.trace.records
            if r.category == category and (node is None or r.node == node)]


# ----------------------------------------------------------------------
# agent crash: headless forwarding on frozen state
# ----------------------------------------------------------------------
def test_agent_crash_freezes_fib_and_keeps_forwarding(mtp_fabric):
    world, topo, deployment = mtp_fabric
    agent = deployment.mtp_nodes[AGG]
    entries = agent.table.entries()
    assert entries, "converged agg must hold VID state"
    injector = FailureInjector(world, deployment)
    injector.crash_agent(AGG)
    assert agent.crashed
    # the VID table is untouched — the data plane forwards headless
    assert agent.table.entries() == entries
    # and every port stays admin-up: the crash is control-plane only
    assert all(i.admin_up for i in topo.node(AGG).interfaces.values())
    _, _, ports = deployment.fluid_candidates(AGG, "L-2-1", None)
    assert ports, "frozen FIB still yields egress candidates"


def test_cold_restart_wipes_protocol_and_forwarding_state(mtp_fabric):
    world, topo, deployment = mtp_fabric
    agent = deployment.mtp_nodes[AGG]
    injector = FailureInjector(world, deployment)
    injector.crash_agent(AGG)
    injector.restart_agent(AGG, cold=True)
    # cold boot: the table restarts empty and the trees rebuild from wire
    assert agent.table.entries() == []
    world.run_for(2 * SECOND)
    assert deployment.ready()
    assert agent.table.entries()


def test_node_crash_downs_every_interface_and_agent_first(mtp_fabric):
    world, topo, deployment = mtp_fabric
    agent = deployment.mtp_nodes[AGG]
    injector = FailureInjector(world, deployment)
    injector.fail_node(AGG)
    assert agent.crashed
    assert all(not i.admin_up for i in topo.node(AGG).interfaces.values())
    # one fail.node record covers the outage, not N per-link episodes
    assert len(records(world, "fail.node", AGG)) == 1
    assert not records(world, "restore.node", AGG)

    injector.restore_node(AGG)
    assert all(i.admin_up for i in topo.node(AGG).interfaces.values())
    assert not agent.crashed            # cold-booted with the power
    assert agent.table.entries() == []  # a power-cycled device keeps nothing
    assert len(records(world, "restore.node", AGG)) == 1
    world.run_for(2 * SECOND)
    assert deployment.ready()


# ----------------------------------------------------------------------
# validated no-ops: traced, state untouched
# ----------------------------------------------------------------------
def test_crashing_a_crashed_agent_is_a_traced_noop(mtp_fabric):
    world, _, deployment = mtp_fabric
    injector = FailureInjector(world, deployment)
    injector.crash_agent(AGG)
    before = list(injector.events)
    injector.crash_agent(AGG)
    assert injector.events == before
    assert [r.message for r in records(world, "fail.agent", AGG)] == [
        "crash", "crash no-op"]


def test_restarting_a_healthy_agent_is_a_traced_noop(mtp_fabric):
    world, _, deployment = mtp_fabric
    agent = deployment.mtp_nodes[AGG]
    entries = agent.table.entries()
    injector = FailureInjector(world, deployment)
    injector.restart_agent(AGG)
    assert not injector.events
    assert agent.table.entries() == entries
    assert [r.message for r in records(world, "fail.agent", AGG)] == [
        "restart no-op"]


def test_restarting_the_agent_of_a_powered_off_router_is_a_traced_noop(
        mtp_fabric):
    """The power-on cold-boots it; a restart while dark would skip that."""
    world, _, deployment = mtp_fabric
    agent = deployment.mtp_nodes[AGG]
    injector = FailureInjector(world, deployment)
    injector.fail_node(AGG)
    before = list(injector.events)
    injector.restart_agent(AGG, cold=False)
    assert agent.crashed and injector.events == before
    assert [r.message for r in records(world, "fail.agent", AGG)] == [
        "restart no-op"]
    injector.restore_node(AGG)
    assert not agent.crashed
    assert agent.table.entries() == []  # cold-booted with the power


def test_node_noops_trace_without_touching_ports(mtp_fabric):
    world, topo, deployment = mtp_fabric
    injector = FailureInjector(world, deployment)
    injector.restore_node(AGG)          # healthy node: restore is a no-op
    assert all(i.admin_up for i in topo.node(AGG).interfaces.values())
    assert [r.message for r in records(world, "restore.node", AGG)] == [
        "no-op"]
    injector.fail_node(AGG)
    injector.fail_node(AGG)             # already dark: second is a no-op
    assert [r.message for r in records(world, "fail.node", AGG)][-1] == "no-op"
    assert len([e for e in injector.events if e.interface != "agent"]) \
        == len(topo.node(AGG).interfaces)


def test_agent_ops_require_a_bound_deployment(mtp_fabric):
    world, _, _ = mtp_fabric
    injector = FailureInjector(world)
    with pytest.raises(ValueError, match="deployment"):
        injector.crash_agent(AGG)
    with pytest.raises(ValueError, match="deployment"):
        injector.restart_agent(AGG)


# ----------------------------------------------------------------------
# the same split holds for BGP: bgpd dies, the kernel FIB keeps routing
# ----------------------------------------------------------------------
def test_bgp_agent_crash_keeps_kernel_fib():
    world, _, deployment = build_and_converge(
        two_pod_params(), "bgp-bfd", seed=0)
    speaker = deployment.speakers[AGG]
    routes = len(deployment.stacks[AGG].table)
    assert routes
    injector = FailureInjector(world, deployment)
    injector.crash_agent(AGG)
    assert speaker.crashed
    assert len(deployment.stacks[AGG].table) == routes
    _, _, ports = deployment.fluid_candidates(AGG, "L-2-1", None)
    assert ports
