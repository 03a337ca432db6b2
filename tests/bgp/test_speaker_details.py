"""BGP speaker internals: update packing, MRAI batching, summaries."""

from __future__ import annotations

from repro.bgp.config import BgpTimers
from repro.bgp.messages import BgpUpdate
from repro.harness.experiments import StackTimers, build_and_converge
from repro.net.capture import Capture
from repro.sim.units import MILLISECOND, SECOND
from repro.stack.ipv4 import Ipv4Packet
from repro.stack.tcp_segment import TcpSegment
from repro.topology.clos import ClosParams, two_pod_params


def bgp_updates_in(capture: Capture):
    found = []
    for rec in capture.records:
        if rec.direction.value != "tx":
            continue
        packet = rec.frame.payload
        if isinstance(packet, Ipv4Packet) and isinstance(packet.payload,
                                                         TcpSegment):
            message = packet.payload.payload
            if isinstance(message, BgpUpdate):
                found.append(message)
    return found


def test_advertisements_never_share_distinct_paths():
    """In a fat-tree with unique ToR ASNs every prefix has a distinct
    AS_PATH, so correct BGP cannot pack NLRI across prefixes — each
    advertisement carries exactly one prefix."""
    from repro.net.world import World
    from repro.topology.clos import build_folded_clos
    from repro.stacks import bgp
    from repro.harness.convergence import converge_from_cold

    world = World(seed=8)
    topo = build_folded_clos(two_pod_params(), world=world)
    dep = bgp.deploy(topo)
    link = world.find_link(topo.tors[0][0][0], topo.aggs[0][0][0])
    capture = Capture()
    capture.attach((link.end_a, link.end_b))
    dep.start()
    converge_from_cold(world, dep)
    updates = bgp_updates_in(capture)
    assert updates, "expected UPDATE traffic on the ToR-agg link"
    assert all(len(u.nlri) == 1 for u in updates)
    # every advertised path ends in a distinct origin ASN
    origins = [u.attributes.as_path[-1] for u in updates if u.nlri]
    assert len(set(origins)) == len(origins)


def test_withdrawals_pack_into_one_update():
    """Several prefixes dying at once (a whole agg fails in a 3-ToR pod)
    leave in a single packed withdrawal UPDATE."""
    from repro.harness.failures import FailureInjector

    params = ClosParams(num_pods=2, tors_per_pod=3)
    world, topo, dep = build_and_converge(params, "bgp")
    top = topo.tops[0][0][0]
    capture = Capture()
    capture.attach_node(topo.node(top))
    FailureInjector(world).fail_node(topo.aggs[0][0][0])
    world.run_for(6 * SECOND)
    withdrawals = [u for u in bgp_updates_in(capture) if u.withdrawn]
    assert withdrawals, "the top spine must withdraw the lost pod prefixes"
    assert any(len(u.withdrawn) == 3 for u in withdrawals), (
        "the three rack prefixes lost together must share one UPDATE"
    )


def test_mrai_batches_withdrawals():
    """With a 200 ms MRAI, the withdrawals triggered by one failure are
    flushed together instead of per-prefix."""
    timers = StackTimers(bgp=BgpTimers(mrai_us=200 * MILLISECOND))
    params = ClosParams(num_pods=2, tors_per_pod=3)  # 3 prefixes per pod
    world, topo, dep = build_and_converge(params, "bgp",
                                          timers=timers)
    agg = topo.aggs[0][0][0]
    case = topo.failure_cases()["TC2"]
    t0 = world.sim.now
    topo.node(case.node).interfaces[case.interface].set_admin(False)
    world.run_for(2 * SECOND)
    tx = [r for r in world.trace.select(category="bgp.update.tx",
                                        node=agg, since=t0)]
    assert tx, "the agg must withdraw the lost rack prefix"
    # nothing leaves before the MRAI window closes
    assert all(r.time - t0 >= 200 * MILLISECOND for r in tx)


def test_speaker_summary_renders():
    world, topo, dep = build_and_converge(two_pod_params(), "bgp")
    summary = dep.speakers[topo.aggs[0][0][0]].summary()
    assert "local AS" in summary
    assert "established" in summary
    assert summary.count("established") == 4  # 2 ToRs + 2 tops


def test_mtp_summary_renders():
    world, topo, dep = build_and_converge(two_pod_params(), "mtp")
    tor_summary = dep.mtp_nodes[topo.tors[0][0][0]].summary()
    assert "ToR VID: 11" in tor_summary
    assert "neighbors: 2 up / 2" in tor_summary
    top_summary = dep.mtp_nodes[topo.tops[0][0][0]].summary()
    assert "top spine" in top_summary
    assert "VID table:" in top_summary
