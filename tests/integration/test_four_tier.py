"""Four-tier (two-zone, super-spine) fabrics — the paper's multi-tier
scaling claim (sections III.B and IX) exercised end to end."""

from __future__ import annotations

import pytest

from repro.harness.experiments import build_and_converge
from repro.harness.pathtrace import trace_path
from repro.sim.units import MILLISECOND, SECOND
from repro.topology.clos import ClosParams
from repro.traffic.generator import ReceiverAnalyzer, TrafficSender

PARAMS = ClosParams(num_pods=2, zones=2, supers_per_group=2)


@pytest.fixture(scope="module")
def mtp_fabric():
    return build_and_converge(PARAMS, "mtp", seed=21,
                              max_converge_us=120 * SECOND)


def test_supers_mesh_every_tree(mtp_fabric):
    world, topo, dep = mtp_fabric
    all_roots = set(topo.tor_vid_seed.values())
    assert len(all_roots) == 8
    for sup in topo.all_supers():
        assert dep.mtp_nodes[sup].table.roots() == all_roots


def test_super_vids_have_depth_four(mtp_fabric):
    """VIDs grow one component per tier: root.torport.aggport.topport."""
    world, topo, dep = mtp_fabric
    for sup in topo.all_supers():
        for vid in dep.mtp_nodes[sup].table.all_vids():
            assert vid.depth == 4


def test_tops_know_their_zone_only(mtp_fabric):
    world, topo, dep = mtp_fabric
    for z, zone_tops in enumerate(topo.tops):
        zone_roots = {topo.tor_vid_seed[t]
                      for pod in topo.tors[z] for t in pod}
        for plane in zone_tops:
            for top in plane:
                assert dep.mtp_nodes[top].table.roots() == zone_roots


def test_cross_zone_traffic_delivered(mtp_fabric):
    world, topo, dep = mtp_fabric
    src = topo.first_server_of(topo.tors[0][0][0])   # zone 1
    dst = topo.first_server_of(topo.tors[1][0][0])   # zone 2
    sender = TrafficSender(dep.servers[src].udp, topo.server_address(dst),
                           gap_us=1000)
    analyzer = ReceiverAnalyzer(dep.servers[dst].udp)
    sender.start(count=100)
    world.run_for(2 * SECOND)
    report = analyzer.report(sender)
    analyzer.close()  # release the port for later tests on this fixture
    assert report.lost == 0


def test_cross_zone_path_peaks_at_supers(mtp_fabric):
    world, topo, dep = mtp_fabric
    src = topo.first_server_of(topo.tors[0][0][0])
    dst = topo.first_server_of(topo.tors[1][1][1])
    path = trace_path(dep, src, dst, src_port=40002)
    tiers = [topo.node(n).tier for n in path]
    assert max(tiers) == 4
    # server,tor,agg,top,super,top,agg,tor,server = 9 hops
    assert tiers == [0, 1, 2, 3, 4, 3, 2, 1, 0]


def test_intra_zone_traffic_avoids_supers(mtp_fabric):
    world, topo, dep = mtp_fabric
    src = topo.first_server_of(topo.tors[0][0][0])
    dst = topo.first_server_of(topo.tors[0][1][1])
    for port in range(40000, 40016):
        path = trace_path(dep, src, dst, src_port=port)
        assert max(topo.node(n).tier for n in path) == 3


def test_zone_boundary_failure_recovers(mtp_fabric):
    """Kill a top's super-uplink: cross-zone traffic reroutes after the
    dead timer; the zone's internal traffic is untouched."""
    world, topo, dep = mtp_fabric
    top = topo.tops[0][0][0]
    node = topo.node(top)
    super_iface = next(
        iface.name for iface in node.interfaces.values()
        if iface.peer() is not None and iface.peer().node.tier == 4
    )
    node.interfaces[super_iface].set_admin(False)
    world.run_for(SECOND)
    src = topo.first_server_of(topo.tors[0][0][0])
    dst = topo.first_server_of(topo.tors[1][0][0])
    sender = TrafficSender(dep.servers[src].udp, topo.server_address(dst),
                           gap_us=1000, src_port=41777)
    analyzer = ReceiverAnalyzer(dep.servers[dst].udp)
    sender.start(count=200)
    world.run_for(2 * SECOND)
    assert analyzer.report(sender).lost == 0


def test_bgp_four_tier_converges_and_delivers():
    world, topo, dep = build_and_converge(PARAMS, "bgp", seed=22,
                                          max_converge_us=120 * SECOND)
    src = topo.first_server_of(topo.tors[0][0][0])
    dst = topo.first_server_of(topo.tors[1][1][1])
    sender = TrafficSender(dep.servers[src].udp, topo.server_address(dst),
                           gap_us=1000)
    analyzer = ReceiverAnalyzer(dep.servers[dst].udp)
    sender.start(count=100)
    world.run_for(2 * SECOND)
    assert analyzer.report(sender).lost == 0
    # AS paths across zones stay loop-free
    for name, speaker in dep.speakers.items():
        for prefix in speaker.loc_rib.prefixes():
            for entry in speaker.loc_rib.chosen(prefix):
                path = entry.attributes.as_path
                assert len(path) == len(set(path)), (name, prefix, path)
