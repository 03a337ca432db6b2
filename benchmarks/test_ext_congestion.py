"""Extension — congestion loss (incast) vs failure loss.

The paper measures *failure* loss only; with finite egress queues the
simulator also reproduces *congestion* loss, and shows the two are
orthogonal: an incast overload drops packets at the bottleneck queue
under both protocol stacks identically (the data plane is the same
hash-ECMP substrate), while failure loss differs by protocol timer.
"""

from __future__ import annotations

import pytest

from repro.sim.units import SECOND
from repro.topology.clos import ClosParams
from repro.harness.experiments import build_and_converge
from repro.traffic.generator import ReceiverAnalyzer, TrafficSender
from repro.stacks import get_stack

from conftest import emit

# 100 Mb/s fabric so a handful of servers can congest a rack downlink
PARAMS = ClosParams(num_pods=2, bandwidth_bps=100_000_000)
QUEUE_BYTES = 64 * 1024


def run_incast(kind: str, n_senders: int, rate_mbps: float):
    world, topo, dep = build_and_converge(PARAMS, kind)
    # receiver: first server of the last ToR
    dst_tor = topo.tors[0][-1][-1]
    dst = topo.first_server_of(dst_tor)
    dst_ip = topo.server_address(dst)
    # shrink the bottleneck queue (ToR -> server link)
    bottleneck = world.find_link(dst_tor, dst)
    bottleneck.queue_bytes = QUEUE_BYTES
    analyzer = ReceiverAnalyzer(dep.servers[dst].udp)
    # senders: one server per other ToR, round-robin
    src_tors = [t for t in topo.all_tors() if t != dst_tor]
    payload = 1000
    wire_bits = (payload + 42) * 8
    gap_us = int(wire_bits / rate_mbps)  # Mb/s == bits/us
    duration = 2 * SECOND
    senders = []
    for i in range(n_senders):
        src = topo.first_server_of(src_tors[i % len(src_tors)])
        gen = TrafficSender(dep.servers[src].udp, dst_ip,
                            src_port=42000 + i, payload_bytes=payload,
                            gap_us=gap_us + 7 * i)  # de-phased
        gen.start(count=duration // (gap_us + 7 * i), at=world.sim.now + 53 * i)
        senders.append(gen)
    world.run_for(duration + SECOND)
    sent = sum(g.sent for g in senders)
    return sent, analyzer.received, bottleneck.frames_dropped_queue


def test_ext_incast_congestion(benchmark, results_dir):
    cases = [(1, 50.0), (2, 50.0), (3, 50.0), (4, 50.0)]

    def measure():
        out = {}
        for n, rate in cases:
            for kind in ("mtp", "bgp"):
                out[(n, kind)] = run_incast(kind, n, rate)
        return out

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = []
    for (n, kind), (sent, received, drops) in sorted(
            results.items(), key=lambda kv: (kv[0][0], get_stack(kv[0][1]).display)):
        offered = n * 50.0
        rows.append([n, f"{offered:.0f}", get_stack(kind).display, sent,
                     sent - received, drops])
    emit(results_dir, "ext_incast_congestion",
         "Extension — incast onto one 100 Mb/s rack link (64 KiB queue)",
         ["senders", "offered Mb/s", "stack", "sent", "lost", "queue drops"],
         rows)

    for kind in ("mtp", "bgp"):
        # below capacity: no loss; above: loss grows with offered load
        assert results[(1, kind)][0] - results[(1, kind)][1] == 0, kind
        losses = [results[(n, kind)][0] - results[(n, kind)][1]
                  for n, _ in cases]
        assert losses[-1] > losses[1] >= 0, kind
        assert results[(4, kind)][2] > 0, kind
    # congestion loss is protocol-agnostic: MTP within ~25% of BGP
    mtp_loss = results[(4, "mtp")][0] - results[(4, "mtp")][1]
    bgp_loss = results[(4, "bgp")][0] - results[(4, "bgp")][1]
    assert mtp_loss == pytest.approx(bgp_loss, rel=0.25)
