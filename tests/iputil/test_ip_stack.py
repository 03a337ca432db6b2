"""IP stack: ARP, local delivery, forwarding, UDP."""

from __future__ import annotations

from repro.iputil.stack import IpStack
from repro.iputil.udp_service import UdpService
from repro.routing.table import NextHop, Route
from repro.stack.addresses import Ipv4Address, Ipv4Network
from repro.stack.payload import RawBytes
from repro.net.world import World

from tests.conftest import make_ip_pair


def ip(text):
    return Ipv4Address.parse(text)


def test_udp_end_to_end_with_arp(world):
    a, b, sa, sb = make_ip_pair(world)
    ua, ub = UdpService(sa), UdpService(sb)
    got = []
    ub.open(5000, lambda payload, src, sport, iface: got.append((payload, str(src), sport)))
    ua.send(ip("10.0.0.2"), 5000, 4000, RawBytes(100, tag="hi"))
    world.run()
    assert len(got) == 1
    payload, src, sport = got[0]
    assert payload.tag == "hi" and src == "10.0.0.1" and sport == 4000


def test_arp_resolves_once_then_caches(world):
    a, b, sa, sb = make_ip_pair(world)
    ua, ub = UdpService(sa), UdpService(sb)
    got = []
    ub.open(5000, lambda payload, *rest: got.append(payload))
    for _ in range(3):
        ua.send(ip("10.0.0.2"), 5000, 4000, RawBytes(10))
    world.run()
    assert len(got) == 3
    # only one ARP request should have gone out (first send triggers it)
    arp_frames = [1 for i in range(1)]  # placeholder to assert via counters
    # rely on counters: 3 data frames + 1 arp request from A
    assert a.interfaces["eth1"].counters.tx_frames == 4


def test_arp_failure_drops_queued_packets(world):
    a, b, sa, sb = make_ip_pair(world)
    ua = UdpService(sa)
    b.interfaces["eth1"].set_admin(False)  # peer cannot answer ARP
    ua.send(ip("10.0.0.2"), 5000, 4000, RawBytes(10))
    world.run()
    assert sa.counters.dropped_arp_fail == 1


def test_no_route_drop(world):
    a, b, sa, sb = make_ip_pair(world)
    ua = UdpService(sa)
    ua.send(ip("99.99.99.99"), 1, 1, RawBytes(1))
    world.run()
    assert sa.counters.dropped_no_route >= 1


def test_forwarding_through_a_router():
    world = World(seed=1)
    # A -- R -- B on two /24s
    a = world.add_node("A")
    r = world.add_node("R")
    b = world.add_node("B")
    l1 = world.connect(a, r)
    l2 = world.connect(r, b)
    l1.end_a.assign_address(ip("10.0.1.1"), 24)
    l1.end_b.assign_address(ip("10.0.1.254"), 24)
    l2.end_a.assign_address(ip("10.0.2.254"), 24)
    l2.end_b.assign_address(ip("10.0.2.1"), 24)
    sa = IpStack(a, forwarding=False)
    sr = IpStack(r, forwarding=True)
    sb = IpStack(b, forwarding=False)
    for s in (sa, sr, sb):
        s.install_connected_routes()
    # default routes on the hosts
    sa.table.install(Route(Ipv4Network.parse("0.0.0.0/0"),
                           (NextHop("eth1", ip("10.0.1.254")),), proto="static"))
    sb.table.install(Route(Ipv4Network.parse("0.0.0.0/0"),
                           (NextHop("eth1", ip("10.0.2.254")),), proto="static"))
    ua, ub = UdpService(sa), UdpService(sb)
    got = []
    ub.open(7, lambda payload, src, sport, iface: got.append(str(src)))
    ua.send(ip("10.0.2.1"), 7, 7, RawBytes(64))
    world.run()
    assert got == ["10.0.1.1"]
    assert sr.counters.forwarded == 1


def test_address_assigned_after_stack_start_is_delivered_locally():
    """The stack keeps its local-address set instead of rebuilding it per
    frame; (re)addressing a port after start-up must still reach it."""
    world = World(seed=1)
    a = world.add_node("A")
    r = world.add_node("R")
    link = world.connect(a, r)
    sa = IpStack(a, forwarding=False)
    sr = IpStack(r, forwarding=True)  # would forward what is not its own
    assert sr.local_addresses() == frozenset()
    link.end_a.assign_address(ip("10.0.1.1"), 24)
    link.end_b.assign_address(ip("10.0.1.254"), 24)
    assert sr.local_addresses() == {ip("10.0.1.254")}
    sa.install_connected_routes()
    sr.install_connected_routes()
    ua, ur = UdpService(sa), UdpService(sr)
    got = []
    ur.open(7, lambda payload, src, sport, iface: got.append(str(src)))
    ua.send(ip("10.0.1.254"), 7, 7, RawBytes(8))
    world.run()
    assert got == ["10.0.1.1"]
    assert sr.counters.delivered == 1 and sr.counters.forwarded == 0
    # renumbering drops the old address from the set
    link.end_b.assign_address(ip("10.0.1.253"), 24)
    assert sr.local_addresses() == {ip("10.0.1.253")}


def test_host_does_not_forward():
    world = World(seed=1)
    a = world.add_node("A")
    h = world.add_node("H")
    b = world.add_node("B")
    l1 = world.connect(a, h)
    l2 = world.connect(h, b)
    l1.end_a.assign_address(ip("10.0.1.1"), 24)
    l1.end_b.assign_address(ip("10.0.1.2"), 24)
    l2.end_a.assign_address(ip("10.0.2.1"), 24)
    l2.end_b.assign_address(ip("10.0.2.2"), 24)
    sa = IpStack(a, forwarding=False)
    sh = IpStack(h, forwarding=False)  # host in the middle
    sb = IpStack(b, forwarding=False)
    for s in (sa, sh, sb):
        s.install_connected_routes()
    sa.table.install(Route(Ipv4Network.parse("10.0.2.0/24"),
                           (NextHop("eth1", ip("10.0.1.2")),)))
    ua = UdpService(sa)
    ub = UdpService(sb)
    got = []
    ub.open(7, lambda *args: got.append(1))
    ua.send(ip("10.0.2.2"), 7, 7, RawBytes(8))
    world.run()
    assert got == []
    assert sh.counters.forwarded == 0


def test_ttl_expiry_in_forwarding_loop():
    """Two routers with default routes at each other: packet dies by TTL."""
    world = World(seed=1)
    r1 = world.add_node("R1")
    r2 = world.add_node("R2")
    link = world.connect(r1, r2)
    link.end_a.assign_address(ip("10.0.0.1"), 24)
    link.end_b.assign_address(ip("10.0.0.2"), 24)
    s1 = IpStack(r1)
    s2 = IpStack(r2)
    s1.install_connected_routes()
    s2.install_connected_routes()
    s1.table.install(Route(Ipv4Network.parse("0.0.0.0/0"),
                           (NextHop("eth1", ip("10.0.0.2")),)))
    s2.table.install(Route(Ipv4Network.parse("0.0.0.0/0"),
                           (NextHop("eth1", ip("10.0.0.1")),)))
    u1 = UdpService(s1)
    u1.send(ip("42.0.0.1"), 1, 1, RawBytes(1), ttl=16)
    world.run(max_events=10_000)
    assert s1.counters.dropped_ttl + s2.counters.dropped_ttl == 1


def test_udp_port_demux_and_close(world):
    a, b, sa, sb = make_ip_pair(world)
    ua, ub = UdpService(sa), UdpService(sb)
    got_a, got_b = [], []
    ub.open(100, lambda *args: got_a.append(1))
    ub.open(200, lambda *args: got_b.append(1))
    ua.send(ip("10.0.0.2"), 100, 1, RawBytes(1))
    ua.send(ip("10.0.0.2"), 200, 1, RawBytes(1))
    ua.send(ip("10.0.0.2"), 300, 1, RawBytes(1))  # unbound port: silently dropped
    world.run()
    assert (len(got_a), len(got_b)) == (1, 1)
    ub.close(100)
    ua.send(ip("10.0.0.2"), 100, 1, RawBytes(1))
    world.run()
    assert len(got_a) == 1
