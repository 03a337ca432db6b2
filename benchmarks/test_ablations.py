"""Ablations — the design choices DESIGN.md calls out.

Each ablation flips one of MR-MTP's (or the baseline's) mechanisms and
measures the consequence the paper argues for:

* Quick-to-Detect: dead timer at 2x the hello interval vs the classical
  3x/4x multipliers — remote-detection convergence scales directly.
* Slow-to-Accept: 3 consecutive hellos to re-accept vs immediate
  acceptance — a flapping interface causes repeated update storms when
  acceptance is immediate.
* MRAI: BGP's MinRouteAdvertisementInterval delays withdrawal cascades.
* BFD interval: detection (and hence convergence) is detect_mult x tx.
"""

from __future__ import annotations

import pytest

from repro.sim.units import MILLISECOND, SECOND
from repro.bfd.session import BfdTimers
from repro.bgp.config import BgpTimers
from repro.core.config import MtpTimers
from repro.topology.clos import two_pod_params
from repro.harness.experiments import (
    StackTimers,
    build_and_converge,
)
from repro.scenario import run_failure_experiment

from conftest import emit


def test_abl_quick_to_detect(benchmark, results_dir):
    """Dead-timer multiplier sweep: convergence for the remote-detection
    case TC1 tracks multiplier x hello."""
    multipliers = (2, 3, 4)

    def measure():
        out = {}
        for mult in multipliers:
            timers = StackTimers(mtp=MtpTimers(
                hello_us=50 * MILLISECOND,
                dead_us=mult * 50 * MILLISECOND,
            ))
            out[mult] = run_failure_experiment(
                two_pod_params(), "mtp", "TC1", timers=timers)
        return out

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [[m, f"{results[m].convergence_ms:.2f}"] for m in multipliers]
    emit(results_dir, "abl_quick_to_detect",
         "Ablation — dead-timer multiplier (hello 50 ms), MR-MTP TC1",
         ["multiplier", "conv ms"], rows,
         note="the paper's Quick-to-Detect is multiplier 2: one missed hello")

    convs = [results[m].convergence_us for m in multipliers]
    assert convs == sorted(convs)
    # each extra hello interval costs ~50 ms of convergence
    assert convs[1] - convs[0] == pytest.approx(50 * MILLISECOND,
                                                abs=15 * MILLISECOND)
    assert convs[2] - convs[1] == pytest.approx(50 * MILLISECOND,
                                                abs=15 * MILLISECOND)


def test_abl_slow_to_accept(benchmark, results_dir):
    """Flapping interface with immediate acceptance vs Slow-to-Accept:
    dampening suppresses the repeated update storms."""
    from repro.harness.convergence import ConvergenceMonitor
    from repro.harness.failures import FailureInjector

    def run(accept_hellos: int):
        timers = StackTimers(mtp=MtpTimers(accept_hellos=accept_hellos))
        world, topo, dep = build_and_converge(
            two_pod_params(), "mtp", timers=timers)
        case = topo.failure_cases()["TC2"]
        monitor = ConvergenceMonitor(world, dep.update_categories())
        injector = FailureInjector(world)
        monitor.arm()
        # 8 flaps: 120 ms down (exceeds the dead timer, kills the
        # neighbor) and 100 ms up (admits at most two 50 ms hellos —
        # below the Slow-to-Accept threshold, but plenty for immediate
        # acceptance)
        injector.flap_interface(case.node, case.interface,
                                period_us=120 * MILLISECOND, count=8,
                                up_period_us=100 * MILLISECOND)
        world.run_for(8 * 220 * MILLISECOND + SECOND)
        ups = sum(1 for r in world.trace.select(category="mtp.neighbor",
                                                since=monitor.armed_at)
                  if "up (tier" in r.message)
        return monitor.update_bytes, monitor.update_count, ups

    def measure():
        return {n: run(n) for n in (1, 3)}

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [[n, *results[n]] for n in (1, 3)]
    emit(results_dir, "abl_slow_to_accept",
         "Ablation — Slow-to-Accept under a flapping interface (8 flaps)",
         ["accept hellos", "update bytes", "update msgs", "neighbor ups"],
         rows)

    eager_bytes, eager_msgs, eager_ups = results[1]
    damped_bytes, damped_msgs, damped_ups = results[3]
    # immediate acceptance churns: each flap re-accepts and re-propagates
    assert eager_ups > damped_ups
    assert eager_bytes > damped_bytes
    assert eager_msgs >= 2 * damped_msgs


def test_abl_mrai(benchmark, results_dir):
    """MRAI sweep: spacing UPDATEs delays the withdrawal cascade (the
    paper's section IV.A points at MRAI as a BGP recovery cost)."""
    mrais_ms = (0, 100, 500)

    def measure():
        out = {}
        for mrai in mrais_ms:
            timers = StackTimers(bgp=BgpTimers(mrai_us=mrai * MILLISECOND))
            out[mrai] = run_failure_experiment(
                two_pod_params(), "bgp", "TC2", timers=timers)
        return out

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [[m, f"{results[m].convergence_ms:.2f}",
             results[m].control_bytes] for m in mrais_ms]
    emit(results_dir, "abl_mrai",
         "Ablation — BGP MRAI sweep, TC2 (local detection)",
         ["MRAI ms", "conv ms", "ctrl B"], rows)

    convs = [results[m].convergence_us for m in mrais_ms]
    assert convs[0] < convs[1] < convs[2]
    # with MRAI=m, the 3-hop cascade costs roughly 3m extra
    assert convs[2] - convs[0] >= 2 * 500 * MILLISECOND


def test_abl_bfd_interval(benchmark, results_dir):
    """BFD tx-interval sweep: TC1 convergence ~ detect_mult x interval."""
    intervals_ms = (50, 100, 200)

    def measure():
        out = {}
        for tx in intervals_ms:
            timers = StackTimers(bfd=BfdTimers(tx_interval_us=tx * MILLISECOND))
            out[tx] = run_failure_experiment(
                two_pod_params(), "bgp-bfd", "TC1", timers=timers)
        return out

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [[tx, f"{results[tx].convergence_ms:.2f}"] for tx in intervals_ms]
    emit(results_dir, "abl_bfd_interval",
         "Ablation — BFD transmit interval (mult 3), BGP+BFD TC1",
         ["tx ms", "conv ms"], rows)

    for tx in intervals_ms:
        conv = results[tx].convergence_us
        assert conv <= 3 * tx * MILLISECOND + 150 * MILLISECOND
    convs = [results[tx].convergence_us for tx in intervals_ms]
    assert convs == sorted(convs)


def test_abl_hello_interval(benchmark, results_dir):
    """Timer tuning (paper section IX): the hello interval trades
    availability (TC1 convergence ~ 2 x hello) against keepalive
    bandwidth (~ 2 x 15 B / hello per link)."""
    from repro.harness.experiments import run_keepalive_experiment
    from repro.sim.units import SECOND

    hellos_ms = (25, 50, 100, 200)

    def measure():
        out = {}
        for hello in hellos_ms:
            timers = StackTimers(mtp=MtpTimers(
                hello_us=hello * MILLISECOND,
                dead_us=2 * hello * MILLISECOND,
            ))
            conv = run_failure_experiment(
                two_pod_params(), "mtp", "TC1", timers=timers)
            ka = run_keepalive_experiment(
                two_pod_params(), "mtp", timers=timers,
                window_us=5 * SECOND)
            out[hello] = (conv.convergence_us, ka.bytes_per_second)
        return out

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [[h, f"{conv / 1000:.2f}", f"{rate:.0f}"]
            for h, (conv, rate) in results.items()]
    emit(results_dir, "abl_hello_interval",
         "Ablation — MR-MTP hello interval (dead = 2 x hello), TC1",
         ["hello ms", "conv ms", "keepalive B/s"], rows,
         note="the paper runs 50 ms; FABRIC VM scheduling set the floor")

    convs = [results[h][0] for h in hellos_ms]
    rates = [results[h][1] for h in hellos_ms]
    assert convs == sorted(convs), "convergence grows with the interval"
    assert rates == sorted(rates, reverse=True), "bandwidth shrinks"
    # convergence is bounded by the dead timer (2 x hello) + cascade
    for hello in hellos_ms:
        assert results[hello][0] <= 2 * hello * MILLISECOND + 10_000


def test_abl_load_balancing_spray_vs_hash(benchmark, results_dir):
    """Load-balancing design choice: the paper's flow hash keeps packets
    of a flow on one path (zero reordering); per-packet spraying spreads
    load perfectly evenly but reorders — which is why MR-MTP (like ECMP)
    hashes."""
    from repro.harness.convergence import converge_from_cold
    from repro.stacks import mtp
    from repro.net.world import World
    from repro.topology.clos import build_folded_clos
    from repro.traffic.generator import ReceiverAnalyzer, TrafficSender

    def run(spray: bool):
        world = World(seed=17)
        topo = build_folded_clos(two_pod_params(), world=world)
        dep = mtp.deploy(topo, per_packet_spray=spray)
        dep.start()
        converge_from_cold(world, dep)
        src_tor, dst_tor = topo.tors[0][0][0], topo.tors[0][1][1]
        # make the two planes' latencies differ (a queued/longer path),
        # so alternating packets across them can actually reorder
        slow = world.find_link(src_tor, topo.aggs[0][0][1])
        slow.propagation_us = 200
        src = topo.first_server_of(src_tor)
        dst = topo.first_server_of(dst_tor)
        analyzer = ReceiverAnalyzer(dep.servers[dst].udp)
        # back-to-back large packets: path-length differences reorder
        sender = TrafficSender(dep.servers[src].udp,
                               topo.server_address(dst),
                               payload_bytes=1400, gap_us=0)
        sender.start(count=2000)
        world.run_for(2 * SECOND)
        report = analyzer.report(sender)
        # uplink utilization spread at the source ToR
        tor = topo.node(src_tor)
        up_counts = [tor.interfaces[p].counters.tx_frames
                     for p in ("eth1", "eth2")]
        return report, up_counts

    def measure():
        return {spray: run(spray) for spray in (False, True)}

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = []
    for spray, (report, ups) in results.items():
        rows.append(["spray" if spray else "flow-hash", report.received,
                     report.lost, report.out_of_order, ups[0], ups[1]])
    emit(results_dir, "abl_load_balancing",
         "Ablation — per-packet spray vs flow hash (2000-packet burst)",
         ["policy", "received", "lost", "ooo", "uplink1", "uplink2"], rows)

    hash_report, hash_ups = results[False]
    spray_report, spray_ups = results[True]
    assert hash_report.out_of_order == 0
    assert spray_report.out_of_order > 0, \
        "alternating across unequal-latency paths must reorder"
    assert hash_report.lost == 0 and spray_report.lost == 0
    # spraying balances the burst almost perfectly across uplinks
    assert abs(spray_ups[0] - spray_ups[1]) <= 0.05 * sum(spray_ups)
    # the flow hash pins the whole burst to one uplink
    assert min(hash_ups) < 0.2 * sum(hash_ups)
