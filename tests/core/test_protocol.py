"""MR-MTP on the paper's 2-PoD fabric: tree construction, failure
updates, keepalive suppression, data plane."""

from __future__ import annotations

import pytest

from repro.core.vid import Vid
from repro.harness.convergence import converge_from_cold
from repro.stacks import mtp
from repro.net.world import World
from repro.sim.units import MILLISECOND, SECOND
from repro.topology.clos import build_folded_clos, two_pod_params


@pytest.fixture
def fabric():
    world = World(seed=3)
    topo = build_folded_clos(two_pod_params(), world=world)
    dep = mtp.deploy(topo)
    dep.start()
    converge_from_cold(world, dep, dep.trees_complete)
    return world, topo, dep


def test_tor_vids_derive_from_rack_subnets(fabric):
    world, topo, dep = fabric
    roots = [dep.mtp_nodes[t].own_root for t in topo.all_tors()]
    assert roots == [11, 12, 13, 14]


def test_aggs_acquire_one_vid_per_pod_tor(fabric):
    """S1_1 holds 11.1 and 12.1 — extensions of both its ToRs' roots by
    the ToR port facing it (paper Fig. 2)."""
    world, topo, dep = fabric
    agg1 = dep.mtp_nodes[topo.aggs[0][0][0]]
    assert sorted(str(v) for v in agg1.table.all_vids()) == ["11.1", "12.1"]
    agg2 = dep.mtp_nodes[topo.aggs[0][0][1]]
    assert sorted(str(v) for v in agg2.table.all_vids()) == ["11.2", "12.2"]


def test_tops_mesh_all_four_trees(fabric):
    """Every top holds one VID per ToR — the meshed-tree invariant."""
    world, topo, dep = fabric
    for top in topo.all_tops():
        assert dep.mtp_nodes[top].table.roots() == {11, 12, 13, 14}
        assert dep.mtp_nodes[top].table.entry_count() == 4


def test_vid_components_are_parent_ports(fabric):
    world, topo, dep = fabric
    top = dep.mtp_nodes[topo.tops[0][0][0]]
    for vid in top.table.all_vids():
        assert vid.depth == 3  # root.torport.aggport
        # the agg's top-facing ports are 3 and 4 (after 2 ToR ports)
        assert vid.parts[1] in (1, 2)
        assert vid.parts[2] in (3, 4)


def test_no_spurious_vids_at_tors(fabric):
    """ToRs are roots: they acquire no VIDs from anyone."""
    world, topo, dep = fabric
    for tor in topo.all_tors():
        assert dep.mtp_nodes[tor].table.entry_count() == 0


def test_keepalive_suppression_under_control_traffic(fabric):
    """Any MR-MTP message doubles as a keepalive, so the explicit 1-byte
    hello only fires on silent links (paper sections IV.B, VII.F)."""
    world, topo, dep = fabric
    tor = dep.mtp_nodes[topo.tors[0][0][0]]
    sent_before = tor.counters.keepalives_sent
    world.run_for(1 * SECOND)
    sent_quiet = tor.counters.keepalives_sent - sent_before
    # idle fabric: ~20 hellos/s per uplink port (50 ms interval, 2 ports)
    assert 30 <= sent_quiet <= 45


def test_neighbors_stay_up_on_idle_fabric(fabric):
    world, topo, dep = fabric
    world.run_for(3 * SECOND)
    for name, mtp in dep.mtp_nodes.items():
        for nbr in mtp.neighbors.values():
            assert nbr.up, f"{name}:{nbr.port} flapped on an idle fabric"


class TestFailure:
    def test_downstream_port_death_prunes_and_propagates(self, fabric):
        world, topo, dep = fabric
        tor = topo.tors[0][0][0]       # L-1-1, root 11
        agg = topo.aggs[0][0][0]       # S-1-1
        case = topo.failure_cases()["TC2"]  # fail at the agg side
        topo.node(case.node).interfaces[case.interface].set_admin(False)
        world.run_for(500 * MILLISECOND)
        agg_mtp = dep.mtp_nodes[agg]
        assert 11 not in agg_mtp.table.roots()
        # plane-1 tops pruned their 11.* entries
        for top in topo.tops[0][0]:
            assert 11 not in dep.mtp_nodes[top].table.roots()
        # plane-2 tops unaffected
        for top in topo.tops[0][1]:
            assert 11 in dep.mtp_nodes[top].table.roots()
        # remote ToRs marked the unusable uplink for root 11
        for pod, tor_idx in ((1, 0), (1, 1)):
            remote = dep.mtp_nodes[topo.tors[0][pod][tor_idx]]
            assert remote.table.is_marked("eth1", 11)
            assert not remote.table.is_marked("eth2", 11)

    def test_remote_side_detects_via_dead_timer(self, fabric):
        world, topo, dep = fabric
        case = topo.failure_cases()["TC1"]  # fail at the ToR side
        t0 = world.sim.now
        topo.node(case.node).interfaces[case.interface].set_admin(False)
        world.run_for(500 * MILLISECOND)
        # S-1-1 (remote end) pruned root 11 only after its dead timer
        prunes = [r for r in world.trace.select(category="mtp.neighbor",
                                                node=case.peer_node, since=t0)
                  if "down" in r.message]
        assert prunes
        latency = prunes[0].time - t0
        assert 50 * MILLISECOND <= latency <= 100 * MILLISECOND + 5000

    def test_update_only_prunes_no_recomputation(self, fabric):
        """Receivers of UPDATE messages never touch unrelated entries."""
        world, topo, dep = fabric
        case = topo.failure_cases()["TC2"]
        top = dep.mtp_nodes[topo.tops[0][0][0]]
        before = {str(v) for v in top.table.all_vids()}
        topo.node(case.node).interfaces[case.interface].set_admin(False)
        world.run_for(500 * MILLISECOND)
        after = {str(v) for v in top.table.all_vids()}
        assert before - after == {"11.1.3"} if "11.1.3" in before else before - after
        assert len(before - after) == 1  # exactly the lost subtree

    def test_unreachable_updates_stop_at_reachable_nodes(self, fabric):
        """TC4: only the plane's other aggs mark; ToRs never hear of it."""
        world, topo, dep = fabric
        case = topo.failure_cases()["TC4"]
        topo.node(case.node).interfaces[case.interface].set_admin(False)
        world.run_for(500 * MILLISECOND)
        # S-2-1 (pod-2 plane-1 agg) marked its port to T-1
        other_agg = dep.mtp_nodes[topo.aggs[0][1][0]]
        marked_ports = [p for p in other_agg.neighbors
                        if other_agg.table.marks_on(p)]
        assert len(marked_ports) == 1
        # no ToR marked anything: S-2-1 still reaches pod 1 via T-2
        for tor in topo.all_tors():
            tor_mtp = dep.mtp_nodes[tor]
            assert all(not tor_mtp.table.marks_on(p)
                       for p in tor_mtp.neighbors)

    def test_recovery_restores_tree_and_clears_marks(self, fabric):
        world, topo, dep = fabric
        case = topo.failure_cases()["TC2"]
        iface = topo.node(case.node).interfaces[case.interface]
        iface.set_admin(False)
        world.run_for(500 * MILLISECOND)
        iface.set_admin(True)
        world.run_for(2 * SECOND)
        # tree re-formed
        assert dep.trees_complete()
        agg = dep.mtp_nodes[topo.aggs[0][0][0]]
        assert 11 in agg.table.roots()
        # remote ToR marks cleared by RESTORED updates
        for pod, tor_idx in ((1, 0), (1, 1)):
            remote = dep.mtp_nodes[topo.tors[0][pod][tor_idx]]
            assert not remote.table.is_marked("eth1", 11)

    def test_slow_to_accept_dampens_flapping_interface(self, fabric):
        """A fast-toggling interface must not be re-accepted between
        flaps (the Slow-to-Accept ablation's base behaviour)."""
        world, topo, dep = fabric
        case = topo.failure_cases()["TC2"]
        iface = topo.node(case.node).interfaces[case.interface]
        t0 = world.sim.now
        # 120 ms down (exceeds the 100 ms dead timer: every flap kills) /
        # 60 ms up (admits at most two hellos: Slow-to-Accept never
        # reaches its three-consecutive threshold)
        for i in range(8):
            world.sim.schedule_at(t0 + i * 180_000, iface.set_admin, False)
            world.sim.schedule_at(t0 + i * 180_000 + 120_000,
                                  iface.set_admin, True)
        last_toggle = t0 + 7 * 180_000 + 120_000
        world.run(until=last_toggle + 2 * SECOND)
        # no re-acceptance while the interface was still flapping...
        flap_ups = [r for r in world.trace.select(
                        category="mtp.neighbor", since=t0, until=last_toggle)
                    if "up (tier" in r.message
                    and r.node in (topo.tors[0][0][0], topo.aggs[0][0][0])]
        assert flap_ups == [], "flapping link must stay dampened"
        # ...but recovery happens once it settles
        assert dep.mtp_nodes[topo.tors[0][0][0]].neighbors["eth1"].up
        assert dep.mtp_nodes[topo.aggs[0][0][0]].neighbors["eth1"].up


class TestDataPlane:
    def test_server_to_server_delivery(self, fabric):
        world, topo, dep = fabric
        from repro.traffic.generator import ReceiverAnalyzer, TrafficSender

        src = topo.first_server_of(topo.tors[0][0][0])
        dst = topo.first_server_of(topo.tors[0][1][1])
        sender = TrafficSender(dep.servers[src].udp,
                               topo.server_address(dst), gap_us=1000)
        analyzer = ReceiverAnalyzer(dep.servers[dst].udp)
        sender.start(count=100)
        world.run_for(2 * SECOND)
        report = analyzer.report(sender)
        assert report.lost == 0 and report.received == 100

    def test_same_rack_traffic_bypasses_fabric(self, fabric):
        world, topo, dep = fabric
        tor = topo.tors[0][0][0]
        mtp = dep.mtp_nodes[tor]
        sent_before = mtp.counters.data_sent
        # servers_per_rack=1, so use ToR-local address as the peer
        from repro.traffic.generator import TrafficSender

        src = topo.first_server_of(tor)
        gw = topo.server_gateway[src]
        # send to the gateway address itself: same subnet, no encap
        sender = TrafficSender(dep.servers[src].udp, gw, gap_us=1000)
        sender.start(count=5)
        world.run_for(1 * SECOND)
        assert mtp.counters.data_sent == sent_before

    def test_data_counts_as_keepalive(self, fabric):
        """Steady data flow suppresses explicit hellos on its links."""
        world, topo, dep = fabric
        from repro.traffic.generator import ReceiverAnalyzer, TrafficSender

        src_tor = topo.tors[0][0][0]
        dst_tor = topo.tors[0][1][1]
        src = topo.first_server_of(src_tor)
        dst = topo.first_server_of(dst_tor)
        analyzer = ReceiverAnalyzer(dep.servers[dst].udp)
        sender = TrafficSender(dep.servers[src].udp,
                               topo.server_address(dst), gap_us=10_000)
        tor_mtp = dep.mtp_nodes[src_tor]
        world.run_for(1 * SECOND)
        idle_rate = tor_mtp.counters.keepalives_sent
        tor_mtp.counters.keepalives_sent = 0
        sender.start(count=200)  # 100 pkts/s for 2 s on one uplink
        world.run_for(2 * SECOND)
        busy = tor_mtp.counters.keepalives_sent
        # the loaded uplink sends (almost) no explicit keepalives;
        # the idle uplink continues at ~20/s
        assert busy < idle_rate * 2 * 0.8
