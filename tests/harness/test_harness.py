"""Harness pieces: failure injection, convergence monitor, metrics,
path tracing."""

from __future__ import annotations

import pytest

from repro.harness.convergence import ConvergenceMonitor, converge_from_cold
from repro.stacks import bgp, mtp
from repro.harness.failures import FailureInjector
from repro.harness.metrics import (
    blast_radius,
    control_overhead_bytes,
    snapshot_table_change_counts,
)
from repro.harness.pathtrace import (
    find_crossing_flow,
    path_crosses_link,
    trace_path,
)
from repro.net.world import World
from repro.scenario import LOSS
from repro.scenario.runner import converge_world, run_scenario_task
from repro.sim.units import SECOND
from repro.topology.clos import build_folded_clos, two_pod_params


@pytest.fixture(scope="module")
def mtp_fabric():
    world = World(seed=5)
    topo = build_folded_clos(two_pod_params(), world=world)
    dep = mtp.deploy(topo)
    dep.start()
    converge_from_cold(world, dep, dep.trees_complete)
    return world, topo, dep


class TestFailureInjector:
    def test_records_exact_time(self):
        world = World(seed=0)
        topo = build_folded_clos(two_pod_params(), world=world)
        injector = FailureInjector(world)
        injector.fail_interface(topo.tors[0][0][0], "eth1", at=123_456)
        world.run(until=200_000)
        assert injector.last_failure_time() == 123_456
        assert not topo.node(topo.tors[0][0][0]).interfaces["eth1"].admin_up

    def test_flap_schedule(self):
        world = World(seed=0)
        topo = build_folded_clos(two_pod_params(), world=world)
        injector = FailureInjector(world)
        injector.flap_interface(topo.tors[0][0][0], "eth1",
                                period_us=10_000, count=3, start_at=0)
        world.run(until=100_000)
        kinds = [e.kind for e in injector.events]
        assert kinds == ["down", "up"] * 3

    def test_last_failure_requires_event(self):
        injector = FailureInjector(World(seed=0))
        with pytest.raises(ValueError):
            injector.last_failure_time()


class TestBlastRadius:
    def test_no_change_no_blast(self, mtp_fabric):
        world, topo, dep = mtp_fabric
        before = snapshot_table_change_counts(dep.forwarding_tables())
        assert blast_radius(before, dep.forwarding_tables()) == []

    def test_exclude_filter(self):
        class FakeTable:
            def __init__(self, n):
                self.change_count = n

        tables = {"a": FakeTable(2), "b": FakeTable(1)}
        before = {"a": 1, "b": 1}
        assert blast_radius(before, tables) == ["a"]
        assert blast_radius(before, tables, exclude={"a"}) == []


class TestConvergenceMonitor:
    def test_counts_only_armed_window_and_categories(self):
        world = World(seed=0)
        mon = ConvergenceMonitor(world, ("mtp.update.tx",))
        world.trace.emit("n", "mtp.update.tx", "early", bytes=10)
        mon.arm()
        world.sim.schedule_at(100, lambda: world.trace.emit(
            "n", "mtp.update.tx", "counted", bytes=20))
        world.sim.schedule_at(200, lambda: world.trace.emit(
            "n", "mtp.keepalive.tx", "ignored", bytes=15))
        world.run()
        assert mon.update_count == 1
        assert mon.update_bytes == 20
        assert mon.convergence_time_us() == 100

    def test_min_wait_blocks_early_return(self):
        world = World(seed=0)
        mon = ConvergenceMonitor(world, ("x",))
        mon.arm()
        # a late event at 3 s would be missed with quiet=1 s alone
        world.sim.schedule_at(3 * SECOND, lambda: world.trace.emit(
            "n", "x", "late", bytes=1))
        mon.run_until_quiet(quiet_us=1 * SECOND, max_wait_us=10 * SECOND,
                            min_wait_us=4 * SECOND)
        assert mon.update_count == 1

    def test_control_overhead_helper(self):
        world = World(seed=0)
        world.trace.emit("n", "bgp.update.tx", "a", bytes=93)
        world.sim.schedule_at(10, lambda: world.trace.emit(
            "n", "bgp.update.tx", "b", bytes=100))
        world.run()
        assert control_overhead_bytes(world.trace, ("bgp.update.tx",),
                                      since=0) == 193
        assert control_overhead_bytes(world.trace, ("bgp.update.tx",),
                                      since=5) == 100


class TestPathTrace:
    def test_mtp_path_is_valley_free(self, mtp_fabric):
        world, topo, dep = mtp_fabric
        src = topo.first_server_of(topo.tors[0][0][0])
        dst = topo.first_server_of(topo.tors[0][1][1])
        path = trace_path(dep, src, dst, src_port=40000)
        assert path[0] == src and path[-1] == dst
        # server, ToR, agg, top, agg, ToR, server
        assert len(path) == 7
        tiers = [topo.node(n).tier for n in path]
        assert tiers == [0, 1, 2, 3, 2, 1, 0]

    def test_intra_pod_path_turns_at_agg(self, mtp_fabric):
        world, topo, dep = mtp_fabric
        src = topo.first_server_of(topo.tors[0][0][0])
        dst = topo.first_server_of(topo.tors[0][0][1])
        path = trace_path(dep, src, dst, src_port=40000)
        tiers = [topo.node(n).tier for n in path]
        assert tiers == [0, 1, 2, 1, 0], "intra-pod traffic must not hit tops"

    def test_flows_spread_over_planes(self, mtp_fabric):
        world, topo, dep = mtp_fabric
        src = topo.first_server_of(topo.tors[0][0][0])
        dst = topo.first_server_of(topo.tors[0][1][1])
        first_hops = {
            trace_path(dep, src, dst, src_port=p)[2]
            for p in range(40000, 40064)
        }
        assert len(first_hops) == 2, "ECMP must use both aggs"

    def test_find_crossing_flow(self, mtp_fabric):
        world, topo, dep = mtp_fabric
        src = topo.first_server_of(topo.tors[0][0][0])
        dst = topo.first_server_of(topo.tors[0][1][1])
        tor, agg = topo.tors[0][0][0], topo.aggs[0][0][0]
        port = find_crossing_flow(dep, src, dst, tor, agg)
        assert port is not None
        path = trace_path(dep, src, dst, port)
        assert path_crosses_link(path, tor, agg)

    def test_bgp_paths_match_clos_shape(self):
        world = World(seed=6)
        topo = build_folded_clos(two_pod_params(), world=world)
        dep = bgp.deploy(topo)
        dep.start()
        converge_from_cold(
            world, dep,
            lambda: dep.all_established() and dep.fib_complete(),
        )
        src = topo.first_server_of(topo.tors[0][0][0])
        dst = topo.first_server_of(topo.tors[0][1][1])
        path = trace_path(dep, src, dst, src_port=40000)
        tiers = [topo.node(n).tier for n in path]
        assert tiers == [0, 1, 2, 3, 2, 1, 0]

    def test_trace_leaves_a_sprayed_data_plane_as_found(self):
        """Tracing reads forwarding state and writes none: on
        ``mtp-spray``, tracing every rack pair leaves each agent's spray
        counter where it was, and a ``loss`` run played on afterwards —
        its ``via`` burst searches ports by tracing too — digests as if
        nothing had been traced."""
        (spec,) = LOSS.expand(two_pod_params(), ["mtp-spray"],
                              case=("TC2",), direction=("near",))
        traced = converge_world(spec)
        _, topo, dep = traced
        counters = {name: node._spray_counter
                    for name, node in dep.mtp_nodes.items()}
        tors = topo.all_tors()
        for src in tors:
            for dst in tors:
                if src != dst:
                    trace_path(dep, topo.first_server_of(src),
                               topo.first_server_of(dst), src_port=40000)
        assert {name: node._spray_counter
                for name, node in dep.mtp_nodes.items()} == counters
        assert run_scenario_task(spec, world=traced).digest \
            == run_scenario_task(spec, world=converge_world(spec)).digest
