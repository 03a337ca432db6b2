"""Oracle-checked failure scenarios, including double failures.

The paper's protocol description covers single failures (TC1-TC4); its
update rules alone would blackhole under some *double* failures (an agg
losing every uplink keeps attracting hashed default-up traffic).  Our
implementation adds default-unreachability updates (DESIGN.md §5);
these tests pin that behaviour against the valley-free reachability
oracle.
"""

from __future__ import annotations

import pytest

from repro.harness.experiments import build_and_converge
from repro.harness.failures import FailureInjector
from repro.harness.oracle import oracle_reachable, pair_verdicts
from repro.sim.units import SECOND
from repro.topology.clos import two_pod_params


def converged(kind, params=None, seed=23):
    return build_and_converge(params or two_pod_params(), kind, seed=seed)


def disagreements(dep, topo) -> list:
    """The rack pairs the protocol delivers over every ECMP choice
    where the oracle has no path, or fails where it has one."""
    return [pair for pair, verdict in pair_verdicts(dep, topo).items()
            if verdict.delivers != verdict.connected]


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


# the ids these cases had when they ran over the deleted stack enum
@pytest.mark.parametrize("kind", ["mtp", "bgp"],
                         ids=["StackKind.MTP", "StackKind.BGP"])
class TestSingleFailureAgainstOracle:
    def test_all_tc_cases_agree(self, kind):
        for case_name in ("TC1", "TC2", "TC3", "TC4"):
            world, topo, dep = converged(kind)
            case = topo.failure_cases()[case_name]
            topo.node(case.node).interfaces[case.interface].set_admin(False)
            world.run_for(5 * SECOND)
            bad = disagreements(dep, topo)
            assert bad == [], (case_name, bad)


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

    def test_agg_losing_both_uplinks_bgp(self):
        world, topo, dep = converged("bgp")
        agg = topo.aggs[0][0][0]
        injector = FailureInjector(world)
        for top in topo.tops[0][0]:
            injector.cut_link(agg, top)
        world.run_for(8 * SECOND)
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

    @pytest.mark.parametrize("kind", ["mtp", "bgp"],
                             ids=["StackKind.MTP", "StackKind.BGP"])
    def test_rack_isolation_detected_by_both(self, kind):
        """Cut both of rack 11's uplinks: everyone must agree rack 11 is
        gone and everything else still works."""
        world, topo, dep = converged(kind)
        tor = topo.tors[0][0][0]
        injector = FailureInjector(world)
        for agg in topo.aggs[0][0]:
            injector.cut_link(tor, agg)
        world.run_for(8 * SECOND)
        assert disagreements(dep, topo) == []
