"""BGP/ECMP(/BFD) on the paper's fabrics: full-system behaviour."""

from __future__ import annotations

import pytest

from repro.harness.convergence import converge_from_cold
from repro.stacks import bgp
from repro.harness.experiments import build_and_converge
from repro.net.world import World
from repro.sim.units import MILLISECOND, SECOND
from repro.stack.addresses import Ipv4Address
from repro.topology.clos import build_folded_clos, two_pod_params
from repro.traffic.generator import ReceiverAnalyzer, TrafficSender


@pytest.fixture(scope="module")
def fabric():
    world, topo, dep = build_and_converge(two_pod_params(), "bgp")
    return world, topo, dep


def test_every_router_routes_every_rack(fabric):
    world, topo, dep = fabric
    for name, stack in dep.stacks.items():
        for subnet in topo.rack_subnet.values():
            assert stack.table.lookup(subnet.host(1)) is not None, (
                f"{name} missing {subnet}"
            )


def test_tors_use_ecmp_over_both_aggs(fabric):
    world, topo, dep = fabric
    tor = topo.tors[0][0][0]
    remote_rack = topo.rack_subnet[topo.tors[0][1][1]]
    route = dep.stacks[tor].table.lookup(remote_rack.host(1))
    assert len(route.nexthops) == 2, "ToR must ECMP across its two aggs"


def test_aggs_reach_remote_pods_via_both_plane_tops(fabric):
    world, topo, dep = fabric
    agg = topo.aggs[0][0][0]
    remote_rack = topo.rack_subnet[topo.tors[0][1][0]]
    route = dep.stacks[agg].table.lookup(remote_rack.host(1))
    assert len(route.nexthops) == 2


def test_as_paths_are_valley_free(fabric):
    """No route's AS path revisits a tier (guaranteed by the sender-side
    loop check under the RFC 7938 ASN plan)."""
    world, topo, dep = fabric
    for name, speaker in dep.speakers.items():
        for prefix in speaker.loc_rib.prefixes():
            for entry in speaker.loc_rib.chosen(prefix):
                path = entry.attributes.as_path
                assert len(path) == len(set(path)), (name, prefix, path)
                assert len(path) <= 4  # tor-agg-top-agg-tor max


def test_end_to_end_traffic(fabric):
    world, topo, dep = fabric
    src = topo.first_server_of(topo.tors[0][0][0])
    dst = topo.first_server_of(topo.tors[0][1][1])
    sender = TrafficSender(dep.servers[src].udp, topo.server_address(dst),
                           gap_us=1000)
    analyzer = ReceiverAnalyzer(dep.servers[dst].udp)
    sender.start(count=200)
    world.run_for(2 * SECOND)
    assert analyzer.report(sender).lost == 0
    analyzer.close()


def test_bgp_reconvergence_restores_connectivity():
    """After a failure + recovery cycle, the fabric heals completely."""
    world, topo, dep = build_and_converge(two_pod_params(), "bgp")
    case = topo.failure_cases()["TC2"]
    iface = topo.node(case.node).interfaces[case.interface]
    iface.set_admin(False)
    world.run_for(8 * SECOND)
    # plane-1 spines reach rack 11 only through the failed downlink, so
    # they legitimately lose the route; every ToR and every plane-2
    # device must keep one
    rack11 = Ipv4Address.parse("192.168.11.1")
    plane1 = {case.node, *topo.tops[0][0], topo.aggs[0][1][0]}
    for name, stack in dep.stacks.items():
        if name in plane1:
            assert stack.table.lookup(rack11) is None, (
                f"{name} should have withdrawn rack 11"
            )
        else:
            assert stack.table.lookup(rack11) is not None, name
    iface.set_admin(True)
    world.run_for(15 * SECOND)
    assert dep.all_established()
    tor = topo.tors[0][0][0]
    remote = topo.rack_subnet[topo.tors[0][1][1]]
    assert len(dep.stacks[case.node].table.lookup(remote.host(1)).nexthops) >= 1
    # the ToR regained both uplinks
    local_route = dep.stacks[tor].table.lookup(remote.host(1))
    assert len(local_route.nexthops) == 2


def test_bfd_fabric_converges_and_sessions_up():
    world, topo, dep = build_and_converge(two_pod_params(), "bgp-bfd")
    assert dep.all_bfd_up()
    assert dep.all_established()


def test_multipath_disabled_single_paths():
    world = World(seed=9)
    topo = build_folded_clos(two_pod_params(), world=world)
    dep = bgp.deploy(topo, multipath=False)
    dep.start()
    converge_from_cold(
        world, dep, lambda: dep.all_established() and dep.fib_complete())
    tor = topo.tors[0][0][0]
    remote = topo.rack_subnet[topo.tors[0][1][1]]
    route = dep.stacks[tor].table.lookup(remote.host(1))
    assert len(route.nexthops) == 1
