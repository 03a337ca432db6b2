"""Graceful restart per stack: MR-MTP's generation-hello detection,
warm carry-over and direct re-JOIN; BGP's RFC 4724 stale retention and
End-of-RIB flush; and the ``bgp-gr``/``mtp-gr`` registry variants that
switch the behavior on."""

from __future__ import annotations

import pytest

from repro.harness.experiments import build_and_converge
from repro.harness.failures import FailureInjector
from repro.sim.units import MILLISECOND, SECOND
from repro.stacks import get_stack, resolve_spec
from repro.topology.clos import two_pod_params

AGG = "S-1-1"


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,params", [
    ("bgp-gr", {"bfd": True, "graceful_restart": True}),
    ("mtp-gr", {"graceful_restart": True}),
])
def test_gr_variants_are_registered(name, params):
    spec = resolve_spec(name)
    assert dict(spec.params) == params
    get_stack(spec.name)  # resolvable to a buildable definition


@pytest.mark.parametrize("name", ["bgp-gr", "mtp-gr"])
def test_gr_deployments_carry_the_flag(name):
    _, _, deployment = build_and_converge(two_pod_params(), name, seed=0)
    assert deployment.graceful_restart


# ----------------------------------------------------------------------
# MR-MTP graceful restart
# ----------------------------------------------------------------------
def test_mtp_warm_restart_holds_stale_and_reconfirms():
    world, topo, deployment = build_and_converge(
        two_pod_params(), "mtp-gr", seed=0)
    agent = deployment.mtp_nodes[AGG]
    entries = agent.table.entries()
    gen = agent.restart_gen
    injector = FailureInjector(world, deployment)
    injector.crash_agent(AGG)
    injector.restart_agent(AGG)         # stack mode: graceful
    # the pre-crash tree survives the restart as stale-held state ...
    assert agent.restart_gen == gen + 1
    assert agent._gr_stale, "warm restart must hold the old tree stale"
    assert agent.table.entries() == entries
    # ... and direct re-JOINs confirm it without waiting out the
    # rebuild timer: well before a cold Slow-to-Accept cycle completes
    world.run_for(20 * MILLISECOND)
    assert not agent._gr_stale, "offers must confirm the stale tree"
    assert agent.table.entries() == entries
    assert deployment.ready()


def test_mtp_generation_hello_reveals_peer_restart():
    """Peers cannot see a fast restart through timers alone — the
    bumped generation byte in the full hello is what tells them."""
    world, topo, deployment = build_and_converge(
        two_pod_params(), "mtp-gr", seed=0)
    agent = deployment.mtp_nodes[AGG]
    injector = FailureInjector(world, deployment)
    injector.crash_agent(AGG)
    injector.restart_agent(AGG)
    world.run_for(200 * MILLISECOND)
    helper_downs = [r for r in world.trace.records
                    if r.category == "mtp.neighbor"
                    and "peer-restart" in r.message]
    assert helper_downs, "helpers must notice the bumped generation"
    # helpers held the restarting peer's routes instead of flushing
    held = [r for r in world.trace.records if "held stale" in r.message]
    assert held


def test_mtp_restart_mode_follows_the_stack():
    """`restart_agent(cold=None)` cold-boots on plain mtp and restarts
    gracefully on mtp-gr — same scenario text, different stack."""
    for stack, graceful in (("mtp", False), ("mtp-gr", True)):
        world, _, deployment = build_and_converge(
            two_pod_params(), stack, seed=0)
        agent = deployment.mtp_nodes[AGG]
        injector = FailureInjector(world, deployment)
        injector.crash_agent(AGG)
        injector.restart_agent(AGG)     # cold=None: stack decides
        if graceful:
            assert agent.table.entries()
        else:
            assert agent.table.entries() == []


def test_mtp_unconfirmed_stale_state_is_pruned():
    """If the rebuild window closes with part of the old tree
    unconfirmed, the leftovers are withdrawn, not kept forever."""
    world, topo, deployment = build_and_converge(
        two_pod_params(), "mtp-gr", seed=0)
    agent = deployment.mtp_nodes[AGG]
    injector = FailureInjector(world, deployment)
    injector.crash_agent(AGG)
    # while the agent is dark, a neighbor leaf goes away for good: its
    # part of the tree can never be re-confirmed
    injector.fail_node("L-1-1")
    injector.restart_agent(AGG)
    world.run_for(2 * SECOND)
    assert not agent._gr_stale
    ports_to_l11 = {name for name, iface in topo.node(AGG).interfaces.items()
                    if (p := iface.peer()) is not None
                    and p.node.name == "L-1-1"}
    assert not any(port in ports_to_l11
                   for port, _ in agent.table.entries())


# ----------------------------------------------------------------------
# BGP graceful restart
# ----------------------------------------------------------------------
def test_bgp_warm_restart_keeps_fib_and_resyncs():
    world, topo, deployment = build_and_converge(
        two_pod_params(), "bgp-gr", seed=0)
    speaker = deployment.speakers[AGG]
    table = deployment.stacks[AGG].table
    routes = len(table)
    assert routes
    injector = FailureInjector(world, deployment)
    injector.crash_agent(AGG)
    injector.restart_agent(AGG)
    # the forwarding plane never empties: RFC 4724 forwarding-state bit
    assert len(table) == routes
    world.run_for(5 * SECOND)
    assert len(table) == routes
    assert speaker.all_established()
    assert deployment.ready()
    # End-of-RIB swept the stale marks: nothing left under a timer
    assert not any(peer.stale_timer is not None and peer.stale_timer.armed
                   for peer in speaker.peers.values()
                   if hasattr(peer.stale_timer, "armed"))


def test_bgp_cold_restart_flushes_fib():
    world, _, deployment = build_and_converge(
        two_pod_params(), "bgp-bfd", seed=0)
    table = deployment.stacks[AGG].table
    routes = len(table)
    assert routes
    injector = FailureInjector(world, deployment)
    injector.crash_agent(AGG)
    injector.restart_agent(AGG)         # stack mode: cold
    # the flush drops every BGP route; only connected routes remain
    assert len(table) < routes
    assert not any(r.proto == "bgp" for r in table.routes())
    world.run_for(5 * SECOND)
    assert deployment.ready()
    assert len(table) == routes


def test_bgp_helper_holds_stale_for_a_restarting_peer():
    world, _, deployment = build_and_converge(
        two_pod_params(), "bgp-gr", seed=0)
    injector = FailureInjector(world, deployment)
    injector.crash_agent(AGG)
    injector.restart_agent(AGG)
    world.run_for(5 * SECOND)
    held = [r for r in world.trace.records if "held stale" in r.message]
    assert held, "helpers must retain the restarting peer's paths"
    # resync refreshed every held path before End-of-RIB, so nothing
    # was swept and no helper gave up via the restart timer
    for speaker in deployment.speakers.values():
        for peer in speaker.peers.values():
            assert not speaker.rib_in.stale_prefixes(peer.cfg.peer_ip)
    assert not any("restart-timer" in r.message
                   for r in world.trace.records)
