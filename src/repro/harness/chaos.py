"""False-positive chaos suite: detector behaviour on lossy-but-healthy links.

The paper's Quick-to-Detect argument (declare a neighbour dead after ONE
missed 50 ms hello) buys a 3x faster reaction than BFD/keepalive-x-3 —
but aggressive timers have a price that only shows on *gray* links: a
detector that fires on ordinary frame loss false-flags a healthy
neighbour, withdraws good paths, and pays route churn for nothing.
Slow-to-Accept (3 clean hellos before re-accepting) dampens the flapping
but does not prevent the false declaration itself.

This module quantifies that tradeoff as a loss-rate x stack grid.  Each
point is one scenario program on a freshly converged fabric, with no
settle:

* ``impair`` (both directions, at the point's loss rate) on the first
  ToR uplink at 0 ms, when the rate is above zero;
* a ``measure "quiet"`` checkpoint at the end of a fixed *quiet window*
  with no offered traffic — every timer-based down-declaration in it is
  a false positive by construction (nothing is down; the checkpoint
  freezes the stack's ``classify_liveness`` fold at that instant);
* then a probe ``traffic_burst`` at the same instant, ``via`` the
  impaired link: the first source port whose path crosses it *when the
  burst starts* (40000 once the detector has withdrawn the link), and
  goodput is measured (the quiet window comes first because data frames
  prove liveness for MR-MTP — any MR-MTP frame resets the dead timer —
  so traffic would mask the false-positive measurement).  The run stops
  ``window_ms`` = the detection bound + 500 ms after the burst ends
  (at the checkpoint when ``traffic_count`` is 0).

The suite reports, per stack, the smallest loss rate at which the
detector starts false-flagging — the *false-positive threshold*.  A
clean fabric (loss 0.0) must show zero false positives on every stack;
the CLI treats anything else as a failure.

Chaos points run through the campaign executor as ``SCENARIO_RUN``
tasks, like every other campaign: content-addressed keys, SHA-256 run
digests, serial == parallel.  :func:`chaos_result` reads a point's row
off its :class:`~repro.scenario.ScenarioMetrics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.sim.units import MILLISECOND
from repro.topology import build_topology
from repro.stacks import StackTimers, resolve_spec
from repro.harness.experiments import detection_bound_us
from repro.scenario import Scenario, ScenarioEvent, ScenarioRunSpec

#: Default loss-rate grid: clean fabric first (the zero-FP guard), then
#: rates spanning "barely gray" to "nearly dead".
DEFAULT_RATES = (0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3)

DEFAULT_WINDOW_MS = 5000
DEFAULT_TRAFFIC_PPS = 500
DEFAULT_TRAFFIC_COUNT = 1000

#: the probe's tail past its last packet, on top of the detection bound
PROBE_TAIL_MS = 500
#: the checkpoint that closes the quiet window
QUIET = "quiet"


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


def gray_link(topo) -> tuple[str, str, str]:
    """The canonical gray link: the first ToR's first fabric uplink, as
    ``(tor, interface, agg)``.

    Uses the topology's own ``fabric_ports`` hook, so families that
    redefine "up" (same-tier cross links) still nominate a sane link.
    """
    tor_name = topo.all_tors()[0]
    ports = topo.fabric_ports(tor_name, up=True)
    if not ports:
        raise RuntimeError(f"{tor_name} has no fabric uplink to impair")
    iface = topo.node(tor_name).interfaces[ports[0]]
    return tor_name, iface.name, iface.peer().node.name


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
) -> list[ScenarioRunSpec]:
    """Expand the loss-rate x stack grid into scenario runs,
    stack-major."""
    for rate in rates:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {rate}")
    topo = build_topology(params)
    tor, iface, agg = gray_link(topo)
    dst = topo.first_server_of(topo.all_tors()[-1])
    specs = []
    for stack in stacks:
        spec = resolve_spec(stack, timers)
        tail_ms = (-(-detection_bound_us(spec) // MILLISECOND)
                   + PROBE_TAIL_MS)
        for rate in rates:
            events = []
            if rate > 0.0:
                events.append(ScenarioEvent(
                    op="impair", target=f"{tor}.iface[{iface}]",
                    loss=float(rate), direction="both"))
            if workload is not None:
                # a fluid workload is flow-level (no frames on the
                # wire), so it can overlap the quiet window without
                # proving liveness to the detectors
                events.append(ScenarioEvent(op="workload",
                                            workload=workload))
            events.append(ScenarioEvent(op="measure", at_ms=window_ms,
                                        label=QUIET))
            if traffic_count > 0:
                events.append(ScenarioEvent(
                    op="traffic_burst", at_ms=window_ms,
                    src=topo.first_server_of(tor), dst=dst,
                    rate_pps=traffic_pps, count=traffic_count,
                    via=f"{tor}--{agg}"))
            specs.append(ScenarioRunSpec(
                params=params, stack=spec, seed=seed,
                scenario=Scenario(
                    name=f"chaos loss={rate:.2f}", settle=0,
                    window_ms=tail_ms if traffic_count > 0 else 0,
                    events=tuple(events))))
    return specs


def chaos_result(spec: ScenarioRunSpec, metrics) -> ChaosResult:
    """A grid point's row from its scenario run: the detector fields
    from the quiet-window checkpoint, the rest from the whole run."""
    events = spec.scenario.events
    quiet = next(c for c in metrics.checkpoints if c.label == QUIET)
    tor, _, agg = gray_link(build_topology(spec.params))
    return ChaosResult(
        stack=metrics.stack,
        loss=next((e.loss for e in events if e.op == "impair"), 0.0),
        seed=metrics.seed,
        window_ms=next(e.at_ms for e in events if e.op == "measure"),
        impaired_link=(tor, agg),
        detections=quiet.detections,
        false_positives=quiet.false_positives, flaps=quiet.flaps,
        route_churn=metrics.route_churn,
        sent=metrics.sent, received=metrics.received,
        suppressions=quiet.suppressions,
        suppression_us=quiet.suppression_us,
        mttr_us=quiet.mttr_us, availability=quiet.availability,
        fib_loops=metrics.fib_loops, fib_loop_us=metrics.fib_loop_us,
        fib_blackholes=metrics.fib_blackholes,
        fib_blackhole_us=metrics.fib_blackhole_us,
        workload=metrics.workload)


def result_payload(result: ChaosResult) -> dict:
    """A row as ``chaos --json`` prints it (beside the run digest)."""
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
        # unmonitored (and anomaly-free) rows stay as they were
        **{k: getattr(result, k)
           for k in ("fib_loops", "fib_loop_us", "fib_blackholes",
                     "fib_blackhole_us")
           if getattr(result, k)},
        **({"workload": result.workload} if result.workload is not None
           else {}),
    }


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
