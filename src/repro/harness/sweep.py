"""Exhaustive single-failure robustness sweep.

For every fabric interface: fail that one interface on a freshly
converged fabric, let the protocol reconverge, then verify by
path-tracing that every rack can still reach every other rack (a
folded-Clos with redundancy >= 2 keeps physical connectivity under any
single interface failure, so any unreachable pair is a protocol bug — a
blackhole the paper's four hand-picked TCs would never catch).

Each failure point is a scenario program with no settle and a zero
``window_ms`` (it stops at its last event):

* with ``ambient_loss``, a tx ``impair`` on every fabric interface, so
  the hard failure plays out under gray noise;
* with a ``workload``, the ``workload`` op at 0 ms (it runs for its own
  declared duration);
* ``iface_down <node>.iface[<port>]`` at 0 ms;
* ``reachability`` at the stack's detection bound plus
  :data:`RECONVERGE_MARGIN_MS`.

So the points run through the campaign executor as ``SCENARIO_RUN``
tasks — fanned out, supervised, replayed from the result cache — and
every point carries a run digest; serial and parallel execution produce
byte-identical results.  :func:`sweep_result` reads a point's row off
its :class:`~repro.scenario.ScenarioMetrics`.

The sweep is stack-agnostic: any stack registered with
:mod:`repro.stacks` sweeps without changes here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.sim.units import MILLISECOND
from repro.topology import TIER_SERVER, Topology, build_topology
from repro.stacks import StackTimers, resolve_spec
from repro.harness.experiments import detection_bound_us
from repro.scenario import Scenario, ScenarioEvent, ScenarioRunSpec

#: how long past the detection bound the fabric reconverges before the
#: all-pairs check
RECONVERGE_MARGIN_MS = 1000


@dataclass(frozen=True)
class FailurePoint:
    node: str
    interface: str
    peer: str


@dataclass
class SweepResult:
    point: FailurePoint
    pairs_checked: int
    unreachable: list[tuple[str, str, str]] = field(default_factory=list)
    workload: Optional[dict] = None  # WorkloadReport payload, if loaded

    @property
    def ok(self) -> bool:
        return not self.unreachable


def fabric_failure_points(topo: Topology) -> list[FailurePoint]:
    """Every router-to-router interface in the fabric."""
    points = []
    for name in topo.routers():
        node = topo.node(name)
        for iface in node.interfaces.values():
            peer = iface.peer()
            if peer is None or peer.node.tier == TIER_SERVER:
                continue
            points.append(FailurePoint(name, iface.name, peer.node.name))
    return points


def sweep_points(params) -> list[FailurePoint]:
    """The failure points of a fabric, listed from a built (never
    converged) topology."""
    return fabric_failure_points(build_topology(params))


def sweep_specs(
    params,
    stack,
    seed: int = 0,
    timers: Optional[StackTimers] = None,
    points: Optional[list[FailurePoint]] = None,
    ambient_loss: float = 0.0,
    workload: Optional[Any] = None,
) -> list[ScenarioRunSpec]:
    """Expand a sweep into one scenario run per failure point (every
    fabric interface unless ``points`` is given), in point order."""
    spec = resolve_spec(stack, timers)
    check_ms = (-(-detection_bound_us(spec) // MILLISECOND)
                + RECONVERGE_MARGIN_MS)
    every = sweep_points(params)
    lead: list[ScenarioEvent] = []
    if ambient_loss > 0.0:
        # per-direction: each fabric interface impairs its tx side
        # once, so every link ends up lossy both ways
        lead += [ScenarioEvent(op="impair", target=_iface(p),
                               loss=ambient_loss, direction="tx")
                 for p in every]
    if workload is not None:
        lead.append(ScenarioEvent(op="workload", workload=workload))
    return [
        ScenarioRunSpec(params=params, stack=spec, seed=seed,
                        scenario=Scenario(
                            name=f"sweep:{p.node}:{p.interface}",
                            settle=0, window_ms=0,
                            events=(*lead,
                                    ScenarioEvent(op="iface_down",
                                                  target=_iface(p)),
                                    ScenarioEvent(op="reachability",
                                                  at_ms=check_ms))))
        for p in (every if points is None else points)
    ]


def _iface(point: FailurePoint) -> str:
    return f"{point.node}.iface[{point.interface}]"


def sweep_result(point: FailurePoint, metrics) -> SweepResult:
    """A point's row from its scenario run's metrics."""
    return SweepResult(point=point, pairs_checked=metrics.pairs_checked,
                       unreachable=list(metrics.unreachable),
                       workload=metrics.workload)


def summarize(results: list[SweepResult]) -> str:
    bad = [r for r in results if not r.ok]
    lines = [
        f"sweep: {len(results)} failure points, "
        f"{sum(r.pairs_checked for r in results)} pair checks, "
        f"{len(bad)} points with blackholes",
    ]
    for r in bad:
        lines.append(f"  FAIL {r.point.node}:{r.point.interface} "
                     f"(peer {r.point.peer}): {r.unreachable[:3]}")
    return "\n".join(lines)
