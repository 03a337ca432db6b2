"""Scenario compiler: declarative events onto the simulation engine.

Compilation happens in two steps against an already-converged fabric:

1. **resolve** — every symbolic target is expanded through
   :class:`~repro.scenario.targets.TargetResolver` *before* any
   simulated time passes, so an unresolvable scenario fails fast with
   :class:`~repro.harness.failures.UnknownTargetError`;
2. **execute** — the fabric idles through the settle phase, the update
   monitor arms and forwarding tables are snapshotted (the measurement
   start, ``t = 0`` for event offsets), fault events are driven through
   :class:`~repro.harness.failures.FailureInjector` and traffic bursts
   through :mod:`repro.traffic`, and the run stops by the scenario's
   rule: under the paper's update-quiesce rule once at least the event
   horizon plus the stack's detection bound has played out, or, when
   the scenario sets ``window_ms``, exactly that long after the horizon.

Three ops exist for fixed-window programs.  ``reachability`` judges
every rack pair over every ECMP choice
(:func:`~repro.harness.oracle.check_all_pairs`) at its instant and adds
``pairs_checked``/``unreachable`` to the metrics.  A ``traffic_burst``
with ``via`` picks its source port when it starts: the first of
40000–40255 whose path crosses that link, else 40000; the first via
burst's crossing port is the metrics' ``via_port``.  ``isolate`` downs
every interface of a node and leaves its agent alive.  A ``measure``
checkpoint freezes the monitor's update counters and the liveness fold
(detections, false positives, flaps, suppressions and their time, MTTR,
availability) at its instant.

This is the only code that drives a measured run.  The failure
experiment of Figs. 4-6 is a single ``iface_down`` at offset 0 (the
library's TC1–TC4, run by
:func:`repro.scenario.runner.run_failure_experiment`), the packet-loss
experiment of Figs. 7/8 is the ``LOSS`` family's two-event program, and
the robustness sweep, the chaos grid and ``repro load`` are scenario
families whose points are fixed-window programs (``SWEEP``, ``CHAOS``
and ``LOAD`` in :mod:`repro.scenario.library`).  The hand-driven
sequences they replaced live on in ``tests/`` as reference oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Optional

from repro.sim.units import MILLISECOND, SECOND
from repro.net.world import World
from repro.topology import Topology
from repro.harness.convergence import ConvergenceMonitor
from repro.harness.failures import FailureInjector
from repro.harness.oracle import check_all_pairs
from repro.harness.pathtrace import find_crossing_flow
from repro.harness.metrics import (
    blast_radius,
    liveness_stats,
    route_churn,
    snapshot_table_change_counts,
)
from repro.resilience.invariants import InvariantMonitor
from repro.scenario.model import DOWN_OPS, Scenario, ScenarioError
from repro.scenario.targets import TargetResolver
from repro.traffic.generator import ReceiverAnalyzer, TrafficSender
from repro.workload.engine import FluidWorkload

# every op whose execution can change forwarding state or link quality:
# a scheduled workload re-solves its rate allocation right after each
# (1 us later, so the injector has already run within the same tick)
ROUTE_CHANGE_OPS = ("iface_down", "iface_up", "link_cut", "link_restore",
                    "node_crash", "node_restart", "agent_crash",
                    "agent_restart", "isolate", "flap_train", "impair",
                    "clear_impairment")

# default flow selector for the first traffic burst; later bursts step
# by one so concurrent flows stay distinguishable at the receiver
BASE_TRAFFIC_SRC_PORT = 40000


@dataclass(frozen=True)
class Checkpoint:
    """Monitor counters and the liveness fold frozen at a ``measure``
    marker (the fold covers measurement start .. ``time_us``)."""

    label: str
    time_us: int
    update_count: int
    update_bytes: int
    detections: int = 0
    false_positives: int = 0
    flaps: int = 0
    suppressions: int = 0
    suppression_us: int = 0
    mttr_us: int = -1
    availability: float = 1.0


@dataclass
class ScenarioMetrics:
    """What one scenario run measured (the per-scenario analysis row)."""

    scenario: str
    stack: str
    seed: int
    settle_us: int
    convergence_us: int            # measurement start -> last update
    detection_us: Optional[int]    # first fault -> first update
    control_bytes: int
    update_count: int
    blast_routers: list[str]
    sent: int = 0
    received: int = 0
    duplicated: int = 0
    out_of_order: int = 0
    via_port: Optional[int] = None  # first via burst's crossing src port
    blackhole_us: int = 0          # longest inferred per-flow outage
    false_positives: int = 0       # unexplained timer-based detections
    flaps: int = 0                 # adjacency/session up-transitions
    route_churn: int = 0           # total table changes (stability score)
    fib_loops: int = 0             # invariant monitor: loop episodes
    fib_loop_us: int = 0           # longest loop episode
    fib_blackholes: int = 0        # invariant monitor: blackhole episodes
    fib_blackhole_us: int = 0      # longest blackhole episode
    checkpoints: list[Checkpoint] = field(default_factory=list)
    workload: Optional[dict] = None  # WorkloadReport payload, if loaded
    # reachability ops only: rack pairs traced and the failed ones
    pairs_checked: Optional[int] = None
    unreachable: Optional[list[tuple[str, str, str]]] = None

    @property
    def lost(self) -> int:
        return self.sent - self.received

    @property
    def goodput(self) -> float:
        """Delivered fraction of offered traffic (1.0 when no traffic)."""
        return self.received / self.sent if self.sent else 1.0

    @property
    def blast_radius(self) -> int:
        return len(self.blast_routers)

    @property
    def convergence_ms(self) -> float:
        return self.convergence_us / MILLISECOND


#: every :class:`ScenarioMetrics` field: what a run's payload and row hold
METRIC_FIELDS = tuple(f.name for f in fields(ScenarioMetrics))


@dataclass
class _Burst:
    sender: TrafficSender
    analyzer: ReceiverAnalyzer
    src_addr: object
    src_port: int
    gap_us: int
    # a via burst: whether it found a port crossing its link
    crossed: Optional[bool] = None


class CompiledScenario:
    """A scenario bound to one built fabric: targets resolved, horizon
    computed, ready to execute exactly once.  After the run, ``bursts``
    holds each traffic burst with the source port it sent from."""

    def __init__(self, scenario: Scenario, world: World,
                 topo: Topology, deployment,
                 invariants: bool = False) -> None:
        self.scenario = scenario
        self.world = world
        self.topo = topo
        self.deployment = deployment
        self.invariants = invariants
        self._executed = False
        resolver = TargetResolver(topo)
        self.actions = [self._resolve(event, resolver, index)
                        for index, event in enumerate(scenario.events)]
        self.horizon_us = scenario.horizon_ms() * MILLISECOND
        if sum(1 for a in self.actions if a[0] == "workload") > 1:
            raise ScenarioError(
                f"scenario {scenario.name!r}: at most one workload op "
                f"per scenario (one fluid engine owns the run's load)")
        # the invariant monitor attaches on loaded runs (its checks ride
        # the workload's route-change epochs for free) or on explicit
        # request; never on a plain baseline run, whose trace then holds
        # no scheduled checks (its fib_* counters read 0)
        has_workload = any(a[0] == "workload" for a in self.actions)
        self._inv_monitor: Optional[InvariantMonitor] = (
            InvariantMonitor(topo, deployment)
            if (has_workload or invariants) else None)
        self.checkpoints: list[Checkpoint] = []
        self.bursts: list[_Burst] = []
        self.engines: list[FluidWorkload] = []
        self._reach: list[tuple[int, list]] = []

    # ------------------------------------------------------------------
    def _resolve(self, event, resolver: TargetResolver, index: int):
        at_us = event.at_ms * MILLISECOND
        if event.op in ("iface_down", "iface_up"):
            return (event.op, at_us, resolver.interface(event.target))
        if event.op in ("link_cut", "link_restore"):
            return (event.op, at_us, resolver.link(event.target))
        if event.op in ("node_crash", "node_restart",
                        "agent_crash", "agent_restart", "isolate"):
            return (event.op, at_us, resolver.node(event.target))
        if event.op == "flap_train":
            up_ms = event.up_ms if event.up_ms is not None else event.down_ms
            return (event.op, at_us, resolver.interface(event.target),
                    event.down_ms * MILLISECOND, up_ms * MILLISECOND,
                    event.count)
        if event.op == "traffic_burst":
            src = resolver.endpoint(event.src)
            dst = resolver.endpoint(event.dst)
            if src == dst:
                raise ScenarioError(
                    f"traffic_burst: src and dst both resolve to {src}")
            via = None if event.via is None else resolver.link(event.via)
            src_port = (event.src_port if event.src_port is not None
                        else BASE_TRAFFIC_SRC_PORT + index)
            return (event.op, at_us, src, dst, event.rate_pps, event.count,
                    src_port, via)
        if event.op == "impair":
            return (event.op, at_us, resolver.interface(event.target),
                    event.impairment_profile(),
                    event.direction if event.direction is not None
                    else "both")
        if event.op == "clear_impairment":
            return (event.op, at_us, resolver.interface(event.target),
                    event.direction if event.direction is not None
                    else "both")
        if event.op == "workload":
            return (event.op, at_us, event.workload_spec())
        if event.op in ("pause", "reachability"):
            return (event.op, at_us)
        return (event.op, at_us, event.label)  # measure

    # ------------------------------------------------------------------
    def execute(self, stack_name: str, seed: int) -> ScenarioMetrics:
        """Run the compiled scenario; one shot per fabric."""
        if self._executed:
            raise ScenarioError("a compiled scenario executes only once")
        self._executed = True
        world, deployment = self.world, self.deployment
        scenario = self.scenario

        # settle: idle the converged fabric so events land at an
        # arbitrary keepalive phase (or a fixed offset)
        if scenario.settle == "keepalive-phase":
            phase_rng = world.rng.stream("experiment-settle")
            period = deployment.keepalive_period_us()
            settle_us = int(phase_rng.uniform(0, 2 * period))
        else:
            settle_us = scenario.settle * MILLISECOND
        world.run_for(settle_us)

        monitor = ConvergenceMonitor(world, deployment.update_categories())
        before = snapshot_table_change_counts(deployment.forwarding_tables())
        injector = FailureInjector(world, deployment)
        monitor.arm()
        start = world.sim.now

        first_fault_us: Optional[int] = None
        for action in self.actions:
            op, at_us = action[0], action[1]
            if op in DOWN_OPS and (first_fault_us is None
                                   or at_us < first_fault_us):
                first_fault_us = at_us
            self._dispatch(action, injector, monitor, start)
        if self.engines:
            # re-solve the fluid allocation right after every scheduled
            # route-changing action (the injector runs first within the
            # tick); the engine's own sampler covers reconvergence
            engine = self.engines[0]
            for action in self.actions:
                if action[0] in ROUTE_CHANGE_OPS:
                    world.sim.schedule_at(start + action[1] + 1,
                                          engine.mark_epoch)
        elif self._inv_monitor is not None:
            # invariants-only mode: with no workload engine driving
            # epoch checks, scan right after each route-changing action
            # and again once (and twice) the detection bound later, when
            # liveness timers have fired and reconvergence has played
            bound = deployment.detection_bound_us()
            for action in self.actions:
                if action[0] in ROUTE_CHANGE_OPS:
                    for delay in (1, bound + 1, 2 * bound + 1):
                        world.sim.schedule_at(start + action[1] + delay,
                                              self._inv_monitor.check)

        if scenario.window_ms is not None:
            world.sim.run(until=start + self.horizon_us
                          + scenario.window_ms * MILLISECOND)
        else:
            quiet_us = scenario.quiet_ms * MILLISECOND
            min_wait_us = (self.horizon_us + deployment.detection_bound_us()
                           + quiet_us)
            # never stop before every scheduled event has played, even
            # when the declared budget is tighter than the horizon
            max_wait_us = max(scenario.max_wait_ms * MILLISECOND,
                              min_wait_us)
            monitor.run_until_quiet(quiet_us=quiet_us,
                                    max_wait_us=max_wait_us,
                                    min_wait_us=min_wait_us)
        monitor.detach()

        convergence = monitor.convergence_time_us()
        detection: Optional[int] = None
        if first_fault_us is not None and monitor.first_update_time is not None:
            detection = monitor.first_update_time - (start + first_fault_us)
        metrics = ScenarioMetrics(
            scenario=scenario.name,
            stack=stack_name,
            seed=seed,
            settle_us=settle_us,
            convergence_us=convergence if convergence is not None else 0,
            detection_us=detection,
            control_bytes=monitor.update_bytes,
            update_count=monitor.update_count,
            blast_routers=blast_radius(before, deployment.forwarding_tables()),
            route_churn=route_churn(before, deployment.forwarding_tables()),
            checkpoints=self.checkpoints,
        )
        def fold(until=None):
            return liveness_stats(
                world.trace, deployment.classify_liveness, injector.events,
                since=start, until=until,
                detection_bound_us=deployment.detection_bound_us())

        stats = fold()
        metrics.false_positives = stats.false_positives
        metrics.flaps = stats.flaps
        # the trace keeps every record, so each checkpoint's fold is
        # taken now over its own window (records at its instant
        # included, as at the instant itself)
        metrics.checkpoints = [
            replace(c, detections=s.detections,
                    false_positives=s.false_positives, flaps=s.flaps,
                    suppressions=s.suppressions,
                    suppression_us=s.suppression_us,
                    mttr_us=s.mttr_us, availability=s.availability)
            for c in self.checkpoints
            for s in (fold(c.time_us),)]
        if self._reach:
            metrics.pairs_checked = sum(n for n, _ in self._reach)
            metrics.unreachable = [u for _, bad in self._reach for u in bad]
        self._account_traffic(metrics)
        if self.engines:
            # finish() already fired at the workload's scheduled end;
            # calling it again just returns the settled report
            metrics.workload = self.engines[0].finish().to_payload()
        if self._inv_monitor is not None:
            # one last scan on the quiesced fabric, then close any
            # still-open anomaly episodes as ongoing
            self._inv_monitor.check()
            self._inv_monitor.finalize()
            metrics.fib_loops = self._inv_monitor.loops
            metrics.fib_loop_us = self._inv_monitor.loop_us
            metrics.fib_blackholes = self._inv_monitor.blackholes
            metrics.fib_blackhole_us = self._inv_monitor.blackhole_us
        return metrics

    # ------------------------------------------------------------------
    def _at(self, at_us: int, start: int, call, *args) -> None:
        """Offset-0 actions run synchronously (in declaration order) at
        the instant the monitor arms; later ones are scheduled."""
        if at_us == 0:
            call(*args)
        else:
            self.world.sim.schedule_at(start + at_us, call, *args)

    def _dispatch(self, action, injector: FailureInjector,
                  monitor: ConvergenceMonitor, start: int) -> None:
        op, at_us = action[0], action[1]
        when = None if at_us == 0 else start + at_us
        if op in ("iface_down", "iface_up"):
            node, iface = action[2]
            call = (injector.fail_interface if op == "iface_down"
                    else injector.restore_interface)
            call(node, iface, at=when)
        elif op in ("link_cut", "link_restore"):
            node_a, node_b = action[2]
            call = (injector.cut_link if op == "link_cut"
                    else injector.restore_link)
            call(node_a, node_b, at=when)
        elif op in ("node_crash", "node_restart"):
            call = (injector.fail_node if op == "node_crash"
                    else injector.restore_node)
            call(action[2], at=when)
        elif op == "isolate":
            injector.fail_node(action[2], at=when, crash_agent=False)
        elif op in ("agent_crash", "agent_restart"):
            call = (injector.crash_agent if op == "agent_crash"
                    else injector.restart_agent)
            call(action[2], at=when)
        elif op == "impair":
            (_, _, (node, iface), profile, direction) = action
            injector.impair_link(node, iface, profile, direction, at=when)
        elif op == "clear_impairment":
            (_, _, (node, iface), direction) = action
            injector.clear_impairment(node, iface, direction, at=when)
        elif op == "flap_train":
            (_, _, (node, iface), down_us, up_us, count) = action
            injector.flap_interface(node, iface, period_us=down_us,
                                    count=count, start_at=start + at_us,
                                    up_period_us=up_us)
        elif op == "traffic_burst":
            self._dispatch_burst(action, start)
        elif op == "workload":
            wl_spec = action[2]
            engine = FluidWorkload(wl_spec, self.topo, self.deployment,
                                   monitor=self._inv_monitor)
            self.engines.append(engine)
            self._at(at_us, start, engine.start)
            end_at = start + at_us + wl_spec.duration_ms * MILLISECOND
            self.world.sim.schedule_at(end_at, engine.finish)
        elif op == "measure":
            label = action[2]

            def checkpoint(label=label):
                self.checkpoints.append(Checkpoint(
                    label=label, time_us=self.world.sim.now,
                    update_count=monitor.update_count,
                    update_bytes=monitor.update_bytes))

            self._at(at_us, start, checkpoint)
        elif op == "reachability":
            def reach():
                self._reach.append(check_all_pairs(self.deployment,
                                                   self.topo))

            self._at(at_us, start, reach)
        # "pause" only extends the horizon; nothing to schedule

    def _dispatch_burst(self, action, start: int) -> None:
        (_, at_us, src, dst, rate_pps, count, src_port, via) = action
        gap_us = max(SECOND // rate_pps, 1)
        sender = TrafficSender(
            udp=self.deployment.servers[src].udp,
            dst=self.topo.server_address(dst),
            src_port=src_port, gap_us=gap_us,
        )
        burst = _Burst(sender=sender, analyzer=self._analyzer_for(dst),
                       src_addr=self.topo.server_address(src),
                       src_port=src_port, gap_us=gap_us)
        self.bursts.append(burst)
        if via is None:
            sender.start(count=count, at=start + at_us)
            return

        def launch():
            # the flow is picked on the forwarding state of the instant
            # the burst starts, not the one the scenario compiled on
            port = find_crossing_flow(self.deployment, src, dst, *via)
            burst.crossed = port is not None
            burst.src_port = sender.src_port = (
                BASE_TRAFFIC_SRC_PORT if port is None else port)
            sender.start(count=count, at=self.world.sim.now)

        self._at(at_us, start, launch)

    def _analyzer_for(self, dst: str) -> ReceiverAnalyzer:
        for burst in self.bursts:
            if burst.analyzer.udp is self.deployment.servers[dst].udp:
                return burst.analyzer
        return ReceiverAnalyzer(self.deployment.servers[dst].udp)

    def _account_traffic(self, metrics: ScenarioMetrics) -> None:
        analyzers = []
        for burst in self.bursts:
            if burst.analyzer not in analyzers:
                analyzers.append(burst.analyzer)
            delivered = burst.analyzer.flow_received(burst.src_addr,
                                                     burst.src_port)
            outage_us = (burst.sender.sent - delivered) * burst.gap_us
            metrics.sent += burst.sender.sent
            metrics.blackhole_us = max(metrics.blackhole_us, outage_us)
            if burst.crossed and metrics.via_port is None:
                metrics.via_port = burst.src_port
        for analyzer in analyzers:
            metrics.received += analyzer.received
            metrics.duplicated += analyzer.duplicated
            metrics.out_of_order += analyzer.out_of_order
            analyzer.close()


def compile_scenario(scenario: Scenario, world: World, topo: Topology,
                     deployment,
                     invariants: bool = False) -> CompiledScenario:
    """Resolve ``scenario`` against a built, converged fabric.

    ``invariants=True`` attaches the runtime invariant monitor even on
    a workload-free run (loaded runs always attach it)."""
    return CompiledScenario(scenario, world, topo, deployment,
                            invariants=invariants)
