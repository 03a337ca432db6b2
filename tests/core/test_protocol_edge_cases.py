"""MR-MTP edge cases: partial root loss, node restart, wide pods."""

from __future__ import annotations

import pytest

from repro.harness.convergence import converge_from_cold
from repro.harness.deploy import deploy_mtp
from repro.harness.failures import FailureInjector
from repro.net.impairment import ImpairmentProfile
from repro.net.world import World
from repro.sim.units import MILLISECOND, SECOND
from repro.topology.clos import ClosParams, build_folded_clos


def build(params, seed=19):
    world = World(seed=seed)
    topo = build_folded_clos(params, world=world)
    dep = deploy_mtp(topo)
    dep.start()
    converge_from_cold(world, dep, dep.trees_complete)
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
        assert dep.trees_complete()
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


class TestOneWayOutage:
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "known defect: the parent re-admits a child it declared dead "
        "by dead-timer, but nothing re-sends the JOINs it pruned, and "
        "the child, which never saw an outage, never re-advertises"))
    def test_trees_regrow_after_a_child_goes_silent_one_way(self):
        """L-1-1's frames to S-1-1 are all lost for 150 ms: S-1-1 declares
        it dead and prunes root 11, then re-admits it once the loss
        clears.  Within a second the trees must be whole again."""
        world, topo, dep = build(ClosParams(num_pods=2), seed=0)
        injector = FailureInjector(world)
        injector.impair_link("L-1-1", "eth1", ImpairmentProfile(loss=1.0),
                             direction="tx")
        world.run_for(150 * MILLISECOND)
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
