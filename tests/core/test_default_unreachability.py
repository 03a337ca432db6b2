"""The default-unreachability extension (DESIGN.md §6) at protocol level."""

from __future__ import annotations

from repro.harness.experiments import build_and_converge
from repro.harness.failures import FailureInjector
from repro.harness.pathtrace import trace_path
from repro.sim.units import SECOND
from repro.topology.clos import two_pod_params


def agg_without_uplinks(seed=29):
    world, topo, dep = build_and_converge(two_pod_params(), "mtp",
                                          seed=seed)
    agg = topo.aggs[0][0][0]
    injector = FailureInjector(world)
    for top in topo.tops[0][0]:
        injector.cut_link(agg, top)
    world.run_for(2 * SECOND)
    return world, topo, dep, agg


def test_tors_learn_the_exception_set():
    world, topo, dep, agg = agg_without_uplinks()
    for tor_name in topo.tors[0][0]:
        tor = dep.mtp_nodes[tor_name]
        assert tor.table.has_default_mark("eth1")
        assert tor.table.default_exceptions("eth1") == {11, 12}
        # intra-pod roots stay usable via the crippled agg
        assert not tor.table.is_marked("eth1", 11)
        assert not tor.table.is_marked("eth1", 12)
        # inter-pod roots are blocked on that uplink
        assert tor.table.is_marked("eth1", 13)
        assert tor.table.is_marked("eth1", 14)


def test_interpod_flows_avoid_the_crippled_agg():
    world, topo, dep, agg = agg_without_uplinks()
    src = topo.first_server_of(topo.tors[0][0][0])
    dst = topo.first_server_of(topo.tors[0][1][0])
    for port in range(40000, 40032):
        path = trace_path(dep, src, dst, src_port=port)
        assert agg not in path, path


def test_intrapod_flows_may_still_use_it():
    world, topo, dep, agg = agg_without_uplinks()
    src = topo.first_server_of(topo.tors[0][0][0])
    dst = topo.first_server_of(topo.tors[0][0][1])
    used = set()
    for port in range(40000, 40032):
        path = trace_path(dep, src, dst, src_port=port)
        used.add(path[2])  # the agg the flow hashed onto
    assert agg in used, "intra-pod traffic should still use the agg"


def test_no_data_blackholed_after_convergence():
    world, topo, dep, agg = agg_without_uplinks()
    from repro.traffic.generator import ReceiverAnalyzer, TrafficSender

    src = topo.first_server_of(topo.tors[0][0][0])
    dst = topo.first_server_of(topo.tors[0][1][1])
    analyzer = ReceiverAnalyzer(dep.servers[dst].udp)
    # many flows: with the extension none may hash into the dead end
    senders = []
    for i in range(8):
        s = TrafficSender(dep.servers[src].udp, topo.server_address(dst),
                          src_port=43000 + i, gap_us=5000)
        s.start(count=100)
        senders.append(s)
    world.run_for(2 * SECOND)
    assert analyzer.received == sum(s.sent for s in senders)


def test_blackhole_exists_without_the_extension():
    """Regression oracle for the gap itself: with the default updates
    suppressed, some flows keep hashing into the crippled agg and die —
    demonstrating why the extension is needed."""
    world, topo, dep = build_and_converge(two_pod_params(), "mtp",
                                          seed=29)
    agg = topo.aggs[0][0][0]
    # sabotage: disable the extension on the agg
    dep.mtp_nodes[agg]._recompute_default_state = lambda: None
    injector = FailureInjector(world)
    for top in topo.tops[0][0]:
        injector.cut_link(agg, top)
    world.run_for(2 * SECOND)
    src = topo.first_server_of(topo.tors[0][0][0])
    dst = topo.first_server_of(topo.tors[0][1][1])
    dead_ends = 0
    for port in range(40000, 40032):
        try:
            trace_path(dep, src, dst, src_port=port)
        except RuntimeError:
            dead_ends += 1
    assert dead_ends > 0, "without the extension some flows must blackhole"


def test_update_counts_stay_small():
    """The extension's cost: a handful of extra messages, not a storm."""
    world, topo, dep = build_and_converge(two_pod_params(), "mtp",
                                          seed=29)
    agg = topo.aggs[0][0][0]
    t0 = world.sim.now
    injector = FailureInjector(world)
    for top in topo.tops[0][0]:
        injector.cut_link(agg, top)
    world.run_for(2 * SECOND)
    updates = [r for r in world.trace.select(category="mtp.update.tx",
                                             since=t0)]
    # prunes at the two tops + their unreachables + the agg's default
    # advertisements to its two ToRs: well under 20 messages total
    assert 0 < len(updates) <= 20
