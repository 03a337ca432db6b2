"""BGP speaker behaviour on small hand-built topologies."""

from __future__ import annotations

import pytest

from repro.bgp.config import BgpConfig, BgpNeighborConfig, BgpTimers
from repro.bgp.speaker import BgpSpeaker, PeerState
from repro.iputil.stack import IpStack
from repro.iputil.tcp import TcpService
from repro.iputil.udp_service import UdpService
from repro.sim.units import MILLISECOND, SECOND
from repro.stack.addresses import Ipv4Address, Ipv4Network


def ip(text):
    return Ipv4Address.parse(text)


def net(text):
    return Ipv4Network.parse(text)


def wire_pair(world, timers=None):
    """Two routers R1(AS 65001) -- R2(AS 65002), R1 originates 10.1.0.0/24."""
    timers = timers or BgpTimers()
    r1 = world.add_node("R1", tier=1)
    r2 = world.add_node("R2", tier=2)
    link = world.connect(r1, r2)
    link.end_a.assign_address(ip("172.16.0.0"), 31)
    link.end_b.assign_address(ip("172.16.0.1"), 31)
    speakers = {}
    for node, asn, peer_ip, peer_asn, networks in (
        (r1, 65001, "172.16.0.1", 65002, [net("10.1.0.0/24")]),
        (r2, 65002, "172.16.0.0", 65001, []),
    ):
        stack = IpStack(node)
        stack.install_connected_routes()
        tcp = TcpService(stack)
        UdpService(stack)
        config = BgpConfig(
            asn=asn, router_id=node.interfaces["eth1"].address,
            neighbors=[BgpNeighborConfig(ip(peer_ip), peer_asn, "eth1")],
            networks=networks, timers=timers,
        )
        speakers[node.name] = BgpSpeaker(node, config, stack, tcp)
    for s in speakers.values():
        s.start()
    return r1, r2, speakers


def test_session_establishes(world):
    r1, r2, speakers = wire_pair(world)
    world.run(until=5 * SECOND)
    assert speakers["R1"].all_established()
    assert speakers["R2"].all_established()


def test_route_advertised_and_installed(world):
    r1, r2, speakers = wire_pair(world)
    world.run(until=5 * SECOND)
    route = speakers["R2"].stack.table.lookup(ip("10.1.0.5"))
    assert route is not None and route.proto == "bgp"
    assert route.nexthops[0].via == ip("172.16.0.0")
    # and the loc-rib has the learned path with R1's ASN
    best = speakers["R2"].loc_rib.best(net("10.1.0.0/24"))
    assert best.attributes.as_path == (65001,)


def test_keepalives_flow_and_hold_timer_does_not_fire(world):
    r1, r2, speakers = wire_pair(world)
    world.run(until=15 * SECOND)
    assert speakers["R1"].all_established()
    kas = world.trace.count("bgp.keepalive.tx")
    assert kas >= 20  # ~1/s each way for >10 s


def test_hold_timer_tears_down_on_silent_peer(world):
    r1, r2, speakers = wire_pair(world)
    world.run(until=5 * SECOND)
    t0 = world.sim.now
    # silence R1 by downing its interface: R2 must hold-time out in ~3 s
    r1.interfaces["eth1"].set_admin(False)
    world.run(until=t0 + 10 * SECOND)
    peer = next(iter(speakers["R2"].peers.values()))
    assert peer.state is not PeerState.ESTABLISHED
    downs = [r for r in world.trace.select(category="bgp.session", node="R2",
                                           since=t0)
             if "down" in r.message]
    assert downs and downs[0].time - t0 <= 3 * SECOND + 200 * MILLISECOND
    # the learned route is withdrawn from the FIB
    assert speakers["R2"].stack.table.lookup(ip("10.1.0.5")) is None


def test_local_interface_down_is_instant_fallover(world):
    r1, r2, speakers = wire_pair(world)
    world.run(until=5 * SECOND)
    t0 = world.sim.now
    r2.interfaces["eth1"].set_admin(False)  # R2's own interface
    # no simulation time may pass for R2's session to drop
    peer = next(iter(speakers["R2"].peers.values()))
    assert peer.state is PeerState.IDLE
    assert speakers["R2"].stack.table.lookup(ip("10.1.0.5")) is None
    assert world.sim.now == t0


def test_session_reestablishes_after_recovery(world):
    r1, r2, speakers = wire_pair(world)
    world.run(until=5 * SECOND)
    r1.interfaces["eth1"].set_admin(False)
    world.run_for(5 * SECOND)
    r1.interfaces["eth1"].set_admin(True)
    world.run_for(20 * SECOND)
    assert speakers["R1"].all_established()
    assert speakers["R2"].all_established()
    assert speakers["R2"].stack.table.lookup(ip("10.1.0.5")) is not None


def test_open_with_wrong_asn_is_rejected(world):
    timers = BgpTimers()
    r1 = world.add_node("R1", tier=1)
    r2 = world.add_node("R2", tier=2)
    link = world.connect(r1, r2)
    link.end_a.assign_address(ip("172.16.0.0"), 31)
    link.end_b.assign_address(ip("172.16.0.1"), 31)
    speakers = {}
    for node, asn, peer_ip, peer_asn in (
        (r1, 65001, "172.16.0.1", 65002),
        (r2, 65002, "172.16.0.0", 64999),  # misconfigured remote-as
    ):
        stack = IpStack(node)
        stack.install_connected_routes()
        tcp = TcpService(stack)
        config = BgpConfig(asn=asn, router_id=node.interfaces["eth1"].address,
                           neighbors=[BgpNeighborConfig(ip(peer_ip), peer_asn,
                                                        "eth1")],
                           timers=timers)
        speakers[node.name] = BgpSpeaker(node, config, stack, tcp)
    for s in speakers.values():
        s.start()
    world.run(until=5 * SECOND)
    assert not speakers["R2"].all_established()


def test_timers_validation():
    with pytest.raises(ValueError):
        BgpTimers(keepalive_us=2 * SECOND, hold_us=1 * SECOND)
    with pytest.raises(ValueError):
        BgpTimers(keepalive_us=0)


def test_config_lines_render_listing1_shape():
    config = BgpConfig(
        asn=64512, router_id=ip("1.0.0.1"),
        neighbors=[BgpNeighborConfig(ip("172.16.0.2"), 64513, "eth1", bfd=True)],
        networks=[net("192.168.11.0/24")],
    )
    text = "\n".join(config.config_lines())
    assert "router bgp 64512" in text
    assert "neighbor 172.16.0.2 remote-as 64513" in text
    assert "neighbor 172.16.0.2 bfd" in text
    assert "timers bgp 1 3" in text
    assert "frr defaults datacenter" in text
