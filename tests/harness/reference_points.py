"""Reference oracles: the hand-driven sweep point, chaos point and
workload run that the scenario programs of ``repro sweep``, ``repro
chaos`` and ``repro load`` replaced, kept step for step.

Each returns its row and the world it ran on, so a test can hold the
compiled program to the same row and trace.  ``world`` — a converged
``(world, topo, deployment)`` of the same inputs — is played on in place
instead of converging one, so a test can converge once for the oracle
and the program alike.
"""

from __future__ import annotations

from repro.harness.chaos import ChaosResult, gray_link
from repro.harness.convergence import ConvergenceMonitor
from repro.harness.experiments import build_and_converge
from repro.harness.failures import FailureInjector
from repro.harness.metrics import (
    liveness_stats,
    route_churn,
    snapshot_table_change_counts,
)
from repro.harness.pathtrace import check_all_pairs, find_crossing_flow
from repro.harness.sweep import (
    FailurePoint,
    SweepResult,
    fabric_failure_points,
)
from repro.net.impairment import ImpairmentProfile
from repro.sim.units import MILLISECOND, SECOND
from repro.stacks import resolve_spec
from repro.traffic.generator import ReceiverAnalyzer, TrafficSender
from repro.workload.engine import FluidWorkload
from repro.workload.spec import resolve_workload


def reference_sweep_point(params, stack, seed: int, point: FailurePoint,
                          ambient_loss: float = 0.0, world=None):
    """Converge, impair every fabric interface's tx side (ambient loss),
    admin-down one interface, run the detection bound plus 1 s, then
    trace every rack pair: ``(SweepResult, world)``."""
    world, topo, deployment = world or build_and_converge(params, stack,
                                                          seed)
    if ambient_loss > 0.0:
        injector = FailureInjector(world)
        profile = ImpairmentProfile(loss=ambient_loss)
        for p in fabric_failure_points(topo):
            injector.impair_link(p.node, p.interface, profile,
                                 direction="tx")
    topo.node(point.node).interfaces[point.interface].set_admin(False)
    world.run_for(deployment.detection_bound_us() + 1 * SECOND)
    checked, unreachable = check_all_pairs(deployment, topo)
    return (SweepResult(point=point, pairs_checked=checked,
                        unreachable=unreachable), world)


def reference_chaos_point(params, stack, seed: int, loss: float,
                          window_ms: int = 5000, traffic_pps: int = 500,
                          traffic_count: int = 1000, world=None):
    """Converge, impair the first ToR uplink both ways, watch a quiet
    window, fold liveness over it, then probe on a flow crossing the
    link (chosen after the window) for the burst plus the detection
    bound plus 500 ms: ``(ChaosResult, world)``."""
    world, topo, deployment = world or build_and_converge(params, stack,
                                                          seed)
    tor_name, iface_name, agg_name = gray_link(topo)
    injector = FailureInjector(world)
    if loss > 0.0:
        injector.impair_link(tor_name, iface_name,
                             ImpairmentProfile(loss=loss), direction="both")
    monitor = ConvergenceMonitor(world, deployment.update_categories())
    before = snapshot_table_change_counts(deployment.forwarding_tables())
    monitor.arm()
    start = world.sim.now
    deadline = start + window_ms * MILLISECOND
    while world.sim.now < deadline:  # the monitor's 50 ms observe slices
        world.sim.run(until=min(world.sim.now + 50 * MILLISECOND, deadline))
    stats = liveness_stats(
        world.trace, deployment.classify_liveness, injector.events,
        since=start, until=world.sim.now,
        detection_bound_us=deployment.detection_bound_us())
    result = ChaosResult(
        stack=resolve_spec(stack).name, loss=loss, seed=seed,
        window_ms=window_ms,
        impaired_link=(tor_name, agg_name),
        detections=stats.detections,
        false_positives=stats.false_positives, flaps=stats.flaps,
        suppressions=stats.suppressions,
        suppression_us=stats.suppression_us,
        mttr_us=stats.mttr_us, availability=stats.availability)
    if traffic_count > 0:
        src = topo.first_server_of(tor_name)
        dst = topo.first_server_of(topo.all_tors()[-1])
        port = find_crossing_flow(deployment, src, dst, tor_name, agg_name)
        if port is None:
            port = 40000  # churned away from the link; probe anyway
        gap_us = max(SECOND // traffic_pps, 1)
        sender = TrafficSender(udp=deployment.servers[src].udp,
                               dst=topo.server_address(dst),
                               src_port=port, gap_us=gap_us)
        analyzer = ReceiverAnalyzer(deployment.servers[dst].udp)
        sender.start(count=traffic_count, at=world.sim.now)
        world.run_for(traffic_count * gap_us
                      + deployment.detection_bound_us()
                      + 500 * MILLISECOND)
        result.sent = sender.sent
        result.received = analyzer.received
        analyzer.close()
    monitor.detach()
    result.route_churn = route_churn(before, deployment.forwarding_tables())
    return result, world


def reference_workload_run(params, stack, seed: int, workload,
                           world=None):
    """Converge, start the fluid workload, run its duration, finish:
    ``(WorkloadReport, world)``."""
    wl = resolve_workload(workload)
    world, topo, deployment = world or build_and_converge(
        params, stack, seed, max_converge_us=60 * SECOND)
    engine = FluidWorkload(wl, topo, deployment)
    engine.start()
    world.run_for(wl.duration_ms * MILLISECOND)
    return engine.finish(), world
