"""False-positive chaos suite: detector behaviour on lossy-but-healthy links.

The paper's Quick-to-Detect argument (declare a neighbour dead after ONE
missed 50 ms hello) buys a 3x faster reaction than BFD/keepalive-x-3 —
but aggressive timers have a price that only shows on *gray* links: a
detector that fires on ordinary frame loss false-flags a healthy
neighbour, withdraws good paths, and pays route churn for nothing.
Slow-to-Accept (3 clean hellos before re-accepting) dampens the flapping
but does not prevent the false declaration itself.

This module quantifies that tradeoff as a loss-rate x stack grid.  Each
:class:`ChaosPointSpec` is one independent task: build a fresh fabric,
converge it, impair the first ToR uplink symmetrically at the given loss
rate, and

1. observe a fixed *quiet window* with no offered traffic — every
   timer-based down-declaration in it is a false positive by
   construction (nothing is down; counted via the stack's
   ``classify_liveness`` hook and the injector's empty fault log);
2. then send a probe burst on a flow that crosses the impaired link and
   measure goodput (the quiet window comes first because data frames
   prove liveness for MR-MTP — any MR-MTP frame resets the dead timer —
   so traffic would mask the false-positive measurement).

The suite reports, per stack, the smallest loss rate at which the
detector starts false-flagging — the *false-positive threshold*.  A
clean fabric (loss 0.0) must show zero false positives on every stack;
the CLI treats anything else as a failure.

Chaos points (the :data:`CHAOS_POINT` kind) run through the same
campaign executor as sweeps and scenario suites: picklable specs,
content-addressed keys, SHA-256 run digests, serial == parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.sim.units import MILLISECOND, SECOND
from repro.topology import TopologySpec, resolve_topology_spec
from repro.stacks import StackSpec, StackTimers, resolve_spec
from repro.net.impairment import ImpairmentProfile
from repro.harness.cache import ResultCache, task_key
from repro.harness.convergence import ConvergenceMonitor
from repro.harness.digest import run_digest
from repro.harness.executor import (
    CampaignReport,
    RetryPolicy,
    TaskKind,
    run_tasks,
)
from repro.harness.experiments import build_and_converge
from repro.harness.failures import FailureInjector
from repro.harness.metrics import (
    liveness_stats,
    route_churn,
    snapshot_table_change_counts,
)
from repro.harness.pathtrace import find_crossing_flow
from repro.traffic.generator import ReceiverAnalyzer, TrafficSender
from repro.workload.engine import FluidWorkload
from repro.workload.spec import resolve_workload

#: Default loss-rate grid: clean fabric first (the zero-FP guard), then
#: rates spanning "barely gray" to "nearly dead".
DEFAULT_RATES = (0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3)

DEFAULT_WINDOW_MS = 5000
DEFAULT_TRAFFIC_PPS = 500
DEFAULT_TRAFFIC_COUNT = 1000


@dataclass(frozen=True)
class ChaosPointSpec:
    """One chaos grid point: everything a worker needs (picklable)."""

    params: TopologySpec
    stack: StackSpec
    seed: int
    loss: float
    window_ms: int = DEFAULT_WINDOW_MS
    traffic_pps: int = DEFAULT_TRAFFIC_PPS
    traffic_count: int = DEFAULT_TRAFFIC_COUNT
    #: optional workload (library name, payload, or spec): the point
    #: then runs fluid load across the gray window instead of relying
    #: on the probe burst alone; the report joins result and digest.
    workload: Optional[Any] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "params",
                           resolve_topology_spec(self.params))
        if self.workload is not None:
            object.__setattr__(
                self, "workload",
                resolve_workload(self.workload).to_payload())


@dataclass
class ChaosResult:
    """Detector behaviour at one (stack, loss-rate) point."""

    stack: str
    loss: float
    seed: int
    window_ms: int
    impaired_link: tuple[str, str]     # (tor, agg) endpoint names
    detections: int = 0                # timer-based down declarations
    false_positives: int = 0
    flaps: int = 0
    route_churn: int = 0
    sent: int = 0
    received: int = 0
    suppressions: int = 0              # damping suppress events
    suppression_us: int = 0            # total suppressed adjacency-time
    mttr_us: int = -1                  # mean down-to-up latency (-1: none)
    availability: float = 1.0          # uptime of transitioned adjacencies
    fib_loops: int = 0                 # invariant monitor: loop episodes
    fib_loop_us: int = 0               # longest loop episode
    fib_blackholes: int = 0            # invariant monitor: blackhole episodes
    fib_blackhole_us: int = 0          # longest blackhole episode
    workload: Optional[dict] = None    # WorkloadReport payload, if loaded

    @property
    def goodput(self) -> float:
        return self.received / self.sent if self.sent else 1.0


@dataclass
class ChaosOutcome:
    """A chaos point's result plus its determinism fingerprint."""

    result: ChaosResult
    digest: str


# ----------------------------------------------------------------------
# one chaos point = one task (top-level, for pool workers and children)
# ----------------------------------------------------------------------
def _first_tor_uplink(topo):
    """The first ToR's first fabric uplink — the canonical gray link.

    Uses the topology's own ``fabric_ports`` hook, so families that
    redefine "up" (same-tier cross links) still nominate a sane link.
    """
    tor_name = topo.all_tors()[0]
    ports = topo.fabric_ports(tor_name, up=True)
    if not ports:
        raise RuntimeError(f"{tor_name} has no fabric uplink to impair")
    iface = topo.node(tor_name).interfaces[ports[0]]
    return tor_name, iface, iface.peer().node.name


def run_chaos_point(spec: ChaosPointSpec) -> ChaosOutcome:
    world, topo, deployment = build_and_converge(
        spec.params, spec.stack, spec.seed)
    tor_name, uplink, agg_name = _first_tor_uplink(topo)

    injector = FailureInjector(world)
    if spec.loss > 0.0:
        injector.impair_link(tor_name, uplink.name,
                             ImpairmentProfile(loss=spec.loss),
                             direction="both")

    monitor = ConvergenceMonitor(world, deployment.update_categories())
    before = snapshot_table_change_counts(deployment.forwarding_tables())
    monitor.arm()
    start = world.sim.now

    # phase 1 — quiet window: no offered traffic, so every timer-based
    # down-declaration is a false positive by construction.  A fluid
    # workload is flow-level (no frames on the wire), so it can overlap
    # the quiet window without proving liveness to the detectors.
    engine = None
    inv_monitor = None
    if spec.workload is not None:
        # loaded points run the invariant monitor: its checks ride the
        # engine's route-change epochs (probe-only points stay
        # monitor-free, keeping their payloads and digests unchanged)
        from repro.resilience.invariants import InvariantMonitor

        inv_monitor = InvariantMonitor(topo, deployment)
        engine = FluidWorkload(resolve_workload(spec.workload), topo,
                               deployment, monitor=inv_monitor)
        engine.start()
    monitor.observe_for(spec.window_ms * MILLISECOND)
    stats = liveness_stats(
        world.trace, deployment.classify_liveness, injector.events,
        since=start, until=world.sim.now,
        detection_bound_us=deployment.detection_bound_us())

    # phase 2 — goodput probe: a flow that crosses the impaired link
    result = ChaosResult(
        stack=spec.stack.name, loss=spec.loss, seed=spec.seed,
        window_ms=spec.window_ms, impaired_link=(tor_name, agg_name),
        detections=stats.detections,
        false_positives=stats.false_positives, flaps=stats.flaps,
        suppressions=stats.suppressions,
        suppression_us=stats.suppression_us,
        mttr_us=stats.mttr_us, availability=stats.availability)
    if spec.traffic_count > 0:
        src = topo.first_server_of(tor_name)
        dst = topo.first_server_of(topo.all_tors()[-1])
        port = find_crossing_flow(deployment, src, dst, tor_name, agg_name)
        if port is None:
            port = 40000  # churned away from the link; probe anyway
        gap_us = max(SECOND // spec.traffic_pps, 1)
        sender = TrafficSender(udp=deployment.servers[src].udp,
                               dst=topo.server_address(dst),
                               src_port=port, gap_us=gap_us)
        analyzer = ReceiverAnalyzer(deployment.servers[dst].udp)
        sender.start(count=spec.traffic_count, at=world.sim.now)
        world.run_for(spec.traffic_count * gap_us
                      + deployment.detection_bound_us()
                      + 500 * MILLISECOND)
        result.sent = sender.sent
        result.received = analyzer.received
        analyzer.close()
    if engine is not None:
        result.workload = engine.finish().to_payload()
    if inv_monitor is not None:
        inv_monitor.check()
        inv_monitor.finalize()
        result.fib_loops = inv_monitor.loops
        result.fib_loop_us = inv_monitor.loop_us
        result.fib_blackholes = inv_monitor.blackholes
        result.fib_blackhole_us = inv_monitor.blackhole_us
    monitor.detach()
    result.route_churn = route_churn(before, deployment.forwarding_tables())
    digest = run_digest(world.trace, _result_payload(result))
    return ChaosOutcome(result=result, digest=digest)


# ----------------------------------------------------------------------
# cache plumbing
# ----------------------------------------------------------------------
def chaos_point_key(spec: ChaosPointSpec) -> str:
    return task_key(
        "chaos-point",
        params=spec.params,
        stack=spec.stack.name,
        stack_params=spec.stack.params,
        timers=spec.stack.timers,
        seed=spec.seed,
        loss=spec.loss,
        window_ms=spec.window_ms,
        traffic_pps=spec.traffic_pps,
        traffic_count=spec.traffic_count,
        # loaded points key differently; probe-only entries keep their
        # cache identity (the component is omitted when None)
        **({"workload": spec.workload} if spec.workload is not None
           else {}),
    )


def _result_payload(result: ChaosResult) -> dict:
    return {
        "stack": result.stack,
        "loss": result.loss,
        "seed": result.seed,
        "window_ms": result.window_ms,
        "impaired_link": list(result.impaired_link),
        "detections": result.detections,
        "false_positives": result.false_positives,
        "flaps": result.flaps,
        "route_churn": result.route_churn,
        "sent": result.sent,
        "received": result.received,
        "suppressions": result.suppressions,
        "suppression_us": result.suppression_us,
        "mttr_us": result.mttr_us,
        "availability": result.availability,
        # invariant-monitor counters appear only when nonzero, so
        # unmonitored (and anomaly-free) payloads stay byte-identical
        **{k: getattr(result, k)
           for k in ("fib_loops", "fib_loop_us", "fib_blackholes",
                     "fib_blackhole_us")
           if getattr(result, k)},
        **({"workload": result.workload} if result.workload is not None
           else {}),
    }


def encode_chaos_outcome(outcome: ChaosOutcome) -> dict:
    return {**_result_payload(outcome.result), "digest": outcome.digest}


def decode_chaos_outcome(payload: dict) -> ChaosOutcome:
    result = ChaosResult(
        stack=payload["stack"],
        loss=payload["loss"],
        seed=payload["seed"],
        window_ms=payload["window_ms"],
        impaired_link=tuple(payload["impaired_link"]),
        detections=payload["detections"],
        false_positives=payload["false_positives"],
        flaps=payload["flaps"],
        route_churn=payload["route_churn"],
        sent=payload["sent"],
        received=payload["received"],
        suppressions=payload["suppressions"],
        suppression_us=payload["suppression_us"],
        mttr_us=payload["mttr_us"],
        availability=payload["availability"],
        fib_loops=payload.get("fib_loops", 0),
        fib_loop_us=payload.get("fib_loop_us", 0),
        fib_blackholes=payload.get("fib_blackholes", 0),
        fib_blackhole_us=payload.get("fib_blackhole_us", 0),
        workload=payload.get("workload"),
    )
    return ChaosOutcome(result=result, digest=payload["digest"])


# ----------------------------------------------------------------------
# the grid driver
# ----------------------------------------------------------------------
def chaos_specs(
    params,
    stacks: Sequence,
    rates: Sequence[float] = DEFAULT_RATES,
    seed: int = 0,
    timers: Optional[StackTimers] = None,
    window_ms: int = DEFAULT_WINDOW_MS,
    traffic_pps: int = DEFAULT_TRAFFIC_PPS,
    traffic_count: int = DEFAULT_TRAFFIC_COUNT,
    workload: Optional[Any] = None,
) -> list[ChaosPointSpec]:
    """Expand the loss-rate x stack grid, stack-major."""
    return [
        ChaosPointSpec(params=params, stack=resolve_spec(stack, timers),
                       seed=seed, loss=float(rate), window_ms=window_ms,
                       traffic_pps=traffic_pps,
                       traffic_count=traffic_count, workload=workload)
        for stack in stacks
        for rate in rates
    ]


def chaos_point_label(spec: ChaosPointSpec) -> str:
    """Human task label for quarantine tables."""
    return f"{spec.stack.name} loss={spec.loss:.2f} seed={spec.seed}"


CHAOS_POINT = TaskKind(
    name="chaos-point", run=run_chaos_point, key=chaos_point_key,
    encode=encode_chaos_outcome, decode=decode_chaos_outcome,
    label=chaos_point_label)


def run_chaos_suite(
    params,
    stacks: Sequence,
    rates: Sequence[float] = DEFAULT_RATES,
    seed: int = 0,
    timers: Optional[StackTimers] = None,
    window_ms: int = DEFAULT_WINDOW_MS,
    traffic_pps: int = DEFAULT_TRAFFIC_PPS,
    traffic_count: int = DEFAULT_TRAFFIC_COUNT,
    workload: Optional[Any] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    report: Optional[CampaignReport] = None,
    policy: Optional[RetryPolicy] = None,
) -> list[Optional[ChaosOutcome]]:
    """Run the full grid through :func:`~repro.harness.executor.run_tasks`;
    under a ``policy``, quarantined points come back ``None``."""
    specs = chaos_specs(params, stacks, rates, seed, timers, window_ms,
                        traffic_pps, traffic_count, workload)
    return run_tasks(CHAOS_POINT, specs, jobs=jobs, cache=cache,
                     policy=policy, report=report)


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def false_positive_thresholds(
    results: Sequence[ChaosResult],
) -> dict[str, Optional[float]]:
    """Per stack, the smallest loss rate with >= 1 false positive (None
    if the detector never false-flagged on the tested grid)."""
    thresholds: dict[str, Optional[float]] = {}
    for result in results:
        thresholds.setdefault(result.stack, None)
        if result.false_positives > 0:
            current = thresholds[result.stack]
            if current is None or result.loss < current:
                thresholds[result.stack] = result.loss
    return thresholds


def clean_fabric_violations(
    results: Sequence[ChaosResult],
) -> list[ChaosResult]:
    """Grid points at loss 0.0 that still reported false positives —
    always a bug (a healthy fabric must never false-flag)."""
    return [r for r in results if r.loss == 0.0 and r.false_positives > 0]


def summarize(results: Sequence[ChaosResult]) -> str:
    """The false-positive-vs-loss-rate table plus per-stack thresholds."""
    from repro.harness.report import render_table

    rows = [[f"{r.loss:.2f}", r.stack, str(r.false_positives),
             str(r.flaps), str(r.suppressions),
             ("-" if r.mttr_us < 0 else f"{r.mttr_us / 1000:.0f}"),
             f"{r.availability:.4f}",
             str(r.route_churn), f"{r.goodput:.3f}"]
            for r in sorted(results, key=lambda r: (r.stack, r.loss))]
    table = render_table(
        "chaos: false positives vs loss rate",
        ["loss", "stack", "false-pos", "flaps", "suppr", "mttr-ms",
         "avail", "churn", "goodput"],
        rows,
        note="false-pos = timer-based down declarations with no fault "
             "injected; the link is lossy, never down",
    )
    lines = [table, ""]
    for stack, threshold in sorted(false_positive_thresholds(results).items()):
        if threshold is None:
            lines.append(f"{stack}: no false positives on this grid")
        else:
            lines.append(f"{stack}: false-positive threshold at loss "
                         f">= {threshold:.2f}")
    return "\n".join(lines)
