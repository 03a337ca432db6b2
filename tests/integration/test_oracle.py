"""The valley-free reachability oracle, and the tables MR-MTP's
default-unreachability updates (DESIGN.md §5) leave when an agg loses
every uplink: the paper's update rules alone would blackhole there.
Verdicts under every single fault and every pair of outages, up to
symmetry, are checked in ``test_fabric_machine.py``."""

from __future__ import annotations

from repro.harness.experiments import build_and_converge
from repro.harness.failures import FailureInjector
from repro.harness.oracle import disagreements, oracle_reachable
from repro.sim.units import SECOND
from repro.topology.clos import two_pod_params


def converged(kind, params=None, seed=23):
    return build_and_converge(params or two_pod_params(), kind, seed=seed)


class TestOracleItself:
    def test_intact_fabric_fully_reachable(self):
        world, topo, dep = converged("mtp")
        for a in topo.all_tors():
            for b in topo.all_tors():
                if a != b:
                    assert oracle_reachable(topo, a, b)

    def test_isolated_rack_detected(self):
        world, topo, dep = converged("mtp")
        tor = topo.tors[0][0][0]
        injector = FailureInjector(world)
        # cut both uplinks: rack 11 is gone
        for agg in topo.aggs[0][0]:
            injector.cut_link(tor, agg)
        other = topo.tors[0][1][0]
        assert not oracle_reachable(topo, tor, other)
        assert not oracle_reachable(topo, other, tor)
        # the other racks still see each other
        assert oracle_reachable(topo, topo.tors[0][0][1], other)

    def test_one_sided_failure_blocks_both_directions(self):
        """A one-sided admin-down breaks the link for both directions
        (tx fails at the downed side, rx drops at it too)."""
        world, topo, dep = converged("mtp")
        case = topo.failure_cases()["TC1"]
        topo.node(case.node).interfaces[case.interface].set_admin(False)
        # plane 1 can no longer descend to rack 11, but plane 2 can
        assert oracle_reachable(topo, topo.tors[0][1][0], topo.tors[0][0][0])


class TestDoubleFailures:
    def test_agg_losing_both_uplinks_mtp(self):
        """The paper-gap scenario: S-1-1 loses both uplinks; its default
        path is gone but its rack links are fine.  Without the
        default-unreachability extension ToR traffic hashed through it
        would blackhole forever."""
        world, topo, dep = converged("mtp")
        agg = topo.aggs[0][0][0]
        injector = FailureInjector(world)
        for top in topo.tops[0][0]:
            injector.cut_link(agg, top)
        world.run_for(5 * SECOND)
        # the agg told its ToRs it can only serve the pod's own roots
        tor = dep.mtp_nodes[topo.tors[0][0][0]]
        assert tor.table.has_default_mark("eth1")
        assert tor.table.default_exceptions("eth1") == {11, 12}
        # inter-pod traffic must avoid the agg, intra-pod may still use it
        assert disagreements(dep, topo) == []

    def test_default_path_restoration(self):
        """Uplinks return: RESTORED_DEFAULT clears the marks and traffic
        may hash through the agg again."""
        world, topo, dep = converged("mtp")
        agg = topo.aggs[0][0][0]
        injector = FailureInjector(world)
        for top in topo.tops[0][0]:
            injector.cut_link(agg, top)
        world.run_for(3 * SECOND)
        for top in topo.tops[0][0]:
            injector.restore_link(agg, top)
        world.run_for(5 * SECOND)
        tor = dep.mtp_nodes[topo.tors[0][0][0]]
        assert not tor.table.has_default_mark("eth1")
        assert dep.ready()
        assert disagreements(dep, topo) == []
