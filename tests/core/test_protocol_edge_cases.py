"""MR-MTP edge cases: partial root loss, node restart, wide pods."""

from __future__ import annotations

import pytest

from repro.harness.convergence import converge_from_cold
from repro.stacks import get_stack, mtp, resolve_spec
from repro.core.messages import MtpJoin, MtpUnreachable
from repro.core.vid import Vid
from repro.harness.failures import FailureInjector
from repro.net.impairment import ImpairmentProfile
from repro.net.world import World
from repro.sim.units import MILLISECOND, SECOND
from repro.topology.clos import ClosParams, build_folded_clos


def build(params, seed=19):
    world = World(seed=seed)
    topo = build_folded_clos(params, world=world)
    dep = mtp.deploy(topo)
    dep.start()
    converge_from_cold(world, dep)
    return world, topo, dep


class TestPartialLoss:
    def test_agg_losing_one_tor_keeps_serving_the_others(self):
        """A 3-ToR pod: the agg loses ToR 1 only; roots 12 and 13 stay
        in its table and no UNREACHABLE is sent for them."""
        params = ClosParams(num_pods=2, tors_per_pod=3)
        world, topo, dep = build(params)
        agg = topo.aggs[0][0][0]
        agg_mtp = dep.mtp_nodes[agg]
        assert agg_mtp.table.roots() == {11, 12, 13}
        # fail the agg's port to ToR 1
        case = topo.failure_cases()["TC2"]
        topo.node(case.node).interfaces[case.interface].set_admin(False)
        world.run_for(500 * MILLISECOND)
        assert agg_mtp.table.roots() == {12, 13}
        # remote ToRs marked exactly root 11, nothing else
        remote = dep.mtp_nodes[topo.tors[0][1][0]]
        assert remote.table.marks_on("eth1") == {11}

    def test_tops_prune_only_the_lost_subtree(self):
        params = ClosParams(num_pods=2, tors_per_pod=3)
        world, topo, dep = build(params)
        top = dep.mtp_nodes[topo.tops[0][0][0]]
        before = set(top.table.all_vids())
        case = topo.failure_cases()["TC2"]
        topo.node(case.node).interfaces[case.interface].set_admin(False)
        world.run_for(500 * MILLISECOND)
        after = set(top.table.all_vids())
        gone = before - after
        assert len(gone) == 1
        assert next(iter(gone)).root == 11


class TestRestart:
    def test_agg_node_restart_rebuilds_its_state(self):
        """Kill a whole agg, bring it back: Slow-to-Accept gates the
        re-acceptance, then the trees regrow through it."""
        params = ClosParams(num_pods=2)
        world, topo, dep = build(params)
        agg = topo.aggs[0][0][0]
        injector = FailureInjector(world)
        injector.fail_node(agg)
        world.run_for(SECOND)
        agg_mtp = dep.mtp_nodes[agg]
        assert agg_mtp.table.entry_count() == 0  # everything pruned
        # plane-1 tops lost the pod-1 roots via this agg
        top = dep.mtp_nodes[topo.tops[0][0][0]]
        assert {11, 12} - top.table.roots() == {11, 12}
        injector.restore_node(agg)
        world.run_for(3 * SECOND)
        assert dep.ready()
        assert agg_mtp.table.roots() == {11, 12}
        assert top.table.roots() == {11, 12, 13, 14}

    def test_marks_cleared_after_restart(self):
        params = ClosParams(num_pods=2)
        world, topo, dep = build(params)
        agg = topo.aggs[0][0][0]
        injector = FailureInjector(world)
        injector.fail_node(agg)
        world.run_for(SECOND)
        other_agg = dep.mtp_nodes[topo.aggs[0][1][0]]
        marked = {p for p in other_agg.neighbors
                  if other_agg.table.marks_on(p)}
        assert marked, "pod-2 plane-1 agg must have marked its up ports"
        injector.restore_node(agg)
        world.run_for(3 * SECOND)
        assert all(not other_agg.table.marks_on(p)
                   for p in other_agg.neighbors)

    def test_a_re_join_for_a_vid_lost_meanwhile_goes_quiet(self):
        """S-1-1 loses power, and while it is out its ToR L-1-1 dies for
        good.  When S-1-1 is back, the tops re-JOIN the 11.1 they pruned
        from it, which it no longer holds and never answers: the tops give
        up after ``REJOIN_RETRIES`` retransmit periods, instead of
        re-sending that JOIN for as long as L-1-1 stays down."""
        world, topo, dep = build(ClosParams(num_pods=2))
        injector = FailureInjector(world, dep)
        joins = []

        def tap(iface, frame, direction):
            if direction == "tx" and isinstance(frame.payload, MtpJoin):
                joins.append((iface.full_name, frame.payload.vids))

        for iface in world.all_interfaces():
            iface.add_tap(tap)
        injector.fail_node("S-1-1")
        world.run_for(300 * MILLISECOND)
        injector.fail_node("L-1-1")
        world.run_for(300 * MILLISECOND)
        injector.restore_node("S-1-1")
        world.run_for(2 * SECOND)
        rejoin = ("T-1:eth1", (Vid.parse("11.1"), Vid.parse("12.1")))
        assert rejoin in joins
        joins.clear()
        world.run_for(3 * SECOND)
        assert joins == []

    @pytest.mark.parametrize("stack, second_ms", [
        ("mtp", 51), ("mtp-spray", 51), ("mtp-gr", 51), ("mtp", 60)])
    def test_a_spine_restarted_twice_is_accepted_back(self, stack,
                                                      second_ms):
        """T-3 crashes at 0 and cold-restarts at 1 ms; its aggs declare
        it restarted and count its hellos again.  It crashes again and
        cold-restarts at ``second_ms + 1``: the aggs' full hellos of the
        meantime reached a dead agent, and its next hello is the third
        they count, so they accept it without its fresh neighbors ever
        having heard their tier.  Keepalives do not carry it: the aggs
        must send a full hello on accepting a peer that restarted since
        their last one, or T-3 holds its ports ``unknown`` for good
        while the aggs hold it up (found by the restart property)."""
        spec = resolve_spec(stack)
        world = World(seed=0)
        topo = build_folded_clos(ClosParams(num_pods=2), world=world)
        dep = get_stack(spec.name).build(topo, spec)
        dep.start()
        converge_from_cold(world, dep)
        injector, now = FailureInjector(world, dep), world.sim.now
        injector.crash_agent("T-3", at=now)
        injector.restart_agent("T-3", at=now + MILLISECOND, cold=True)
        injector.crash_agent("T-3", at=now + second_ms * MILLISECOND)
        injector.restart_agent("T-3", at=now + (second_ms + 1) * MILLISECOND,
                               cold=True)
        world.run_for(SECOND)
        spine = dep.mtp_nodes["T-3"]
        assert {port: (nbr.up, nbr.tier)
                for port, nbr in spine.neighbors.items()} == {
                    "eth1": (True, 2), "eth2": (True, 2)}
        assert dep.ready()


def test_a_root_announced_lost_is_restored_when_an_uplink_returns():
    """S-1-1 loses one uplink, hears root 13 is unreachable over the
    other and announces it lost to its ToRs; then that uplink dies too,
    taking its mark with it.  When both come back unmarked, S-1-1 serves
    root 13 again and must say so: no RESTORED comes from above, and L-1-1
    would otherwise keep the mark (found by the fabric machine)."""
    world, topo, dep = build(ClosParams(num_pods=2))
    agg, tor = dep.mtp_nodes["S-1-1"], dep.mtp_nodes["L-1-1"]
    port = next(p for p in tor.up_ports()
                if tor.node.interfaces[p].peer().node.name == "S-1-1")
    up1, up2 = agg.up_ports()
    agg.node.interfaces[up1].set_admin(False)
    agg._process_update(up2, MtpUnreachable(roots=(13,)))
    world.run_for(MILLISECOND)
    assert tor.table.is_marked(port, 13)
    agg.node.interfaces[up2].set_admin(False)
    for up in (up1, up2):
        agg.node.interfaces[up].set_admin(True)
    world.run_for(SECOND)
    assert not tor.table.is_marked(port, 13)


class TestOneWayOutage:
    @pytest.mark.parametrize("stack, loss_ms", [
        ("mtp", 150), ("mtp-spray", 150), ("mtp-adaptive", 150),
        # past mtp-gr's 1 s stale hold, so the held state is pruned
        ("mtp-gr", 1500)])
    def test_trees_regrow_after_a_child_goes_silent_one_way(self, stack,
                                                           loss_ms):
        """L-1-1's frames to S-1-1 are all lost: S-1-1 declares it dead
        and prunes root 11, then re-admits it once the loss clears and
        re-sends the JOINs it pruned, since L-1-1 never saw an outage and
        never re-advertises.  Within a second the trees must be whole
        again."""
        world = World(seed=0)
        topo = build_folded_clos(ClosParams(num_pods=2), world=world)
        spec = resolve_spec(stack)
        dep = get_stack(spec.name).build(topo, spec)
        dep.start()
        converge_from_cold(world, dep)
        injector = FailureInjector(world)
        injector.impair_link("L-1-1", "eth1", ImpairmentProfile(loss=1.0),
                             direction="tx")
        world.run_for(loss_ms * MILLISECOND)
        injector.clear_impairment("L-1-1", "eth1", direction="tx")
        world.run_for(SECOND)
        roots = set(topo.tor_vid_seed.values())
        assert {top: dep.mtp_nodes[top].table.roots()
                for top in topo.all_tops()} == {
                    top: roots for top in topo.all_tops()}
        assert dep.ready()


class TestWidePods:
    def test_three_aggs_three_planes(self):
        """aggs_per_pod=3 yields three planes; ToRs get three uplinks and
        hand out three child VIDs."""
        params = ClosParams(num_pods=2, aggs_per_pod=3, tops_per_plane=2)
        world, topo, dep = build(params)
        tor = dep.mtp_nodes[topo.tors[0][0][0]]
        assert len(tor.up_ports()) == 3
        # each agg holds one child VID per pod ToR, with its own port suffix
        suffixes = set()
        for a_idx, agg in enumerate(topo.aggs[0][0]):
            vids = dep.mtp_nodes[agg].table.all_vids()
            assert {v.root for v in vids} == {11, 12}
            suffixes.update(v.parts[1] for v in vids)
        assert suffixes == {1, 2, 3}

    def test_failure_in_wide_pod_leaves_two_planes(self):
        params = ClosParams(num_pods=2, aggs_per_pod=3)
        world, topo, dep = build(params)
        case = topo.failure_cases()["TC2"]
        topo.node(case.node).interfaces[case.interface].set_admin(False)
        world.run_for(500 * MILLISECOND)
        # the remote ToR still reaches root 11 via two unmarked uplinks
        remote = dep.mtp_nodes[topo.tors[0][1][0]]
        unmarked = [p for p in remote.up_ports()
                    if not remote.table.is_marked(p, 11)]
        assert len(unmarked) == 2
        from repro.harness.pathtrace import trace_path

        src = topo.first_server_of(topo.tors[0][1][0])
        dst = topo.first_server_of(topo.tors[0][0][0])
        for port in range(40000, 40008):
            path = trace_path(dep, src, dst, src_port=port)
            # the agg whose downlink died cannot be on any delivering path
            assert case.node not in path, path
