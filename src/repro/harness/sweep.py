"""Exhaustive single-failure robustness sweep.

For every fabric interface: build a fresh fabric, converge, fail that
one interface, let the protocol reconverge, then verify by path-tracing
that every rack can still reach every other rack (a folded-Clos with
redundancy >= 2 keeps physical connectivity under any single interface
failure, so any unreachable pair is a protocol bug — a blackhole the
paper's four hand-picked TCs would never catch).

Each failure point is an independent task (its own World, its own seed;
the :data:`SWEEP_POINT` kind), so the sweep runs through the campaign
executor (:mod:`repro.harness.executor`) — fanned out, supervised, and
replayed from the on-disk :mod:`result cache <repro.harness.cache>`.
Every point carries a run digest; serial and parallel execution produce
byte-identical results.

The sweep is stack-agnostic: any stack registered with
:mod:`repro.stacks` sweeps without changes here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.sim.units import SECOND
from repro.topology import (
    TIER_SERVER,
    Topology,
    TopologySpec,
    resolve_topology_spec,
)
from repro.stacks import StackSpec, StackTimers, resolve_spec
from repro.net.impairment import ImpairmentProfile
from repro.harness.cache import ResultCache, task_key
from repro.harness.digest import run_digest
from repro.harness.executor import (
    CampaignReport,
    RetryPolicy,
    TaskKind,
    run_tasks,
)
from repro.harness.experiments import build_and_converge
from repro.harness.failures import FailureInjector
from repro.harness.pathtrace import trace_path
from repro.workload.engine import FluidWorkload
from repro.workload.spec import resolve_workload


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


@dataclass(frozen=True)
class SweepPointSpec:
    """One sweep task: everything a worker process needs (picklable)."""

    params: TopologySpec
    stack: StackSpec
    seed: int
    point: FailurePoint
    reconverge_margin_us: int
    #: background loss rate applied to every fabric link while the hard
    #: failure plays out — sweeping under gray noise instead of a
    #: pristine fabric.  0.0 (the default) keeps the classic sweep.
    ambient_loss: float = 0.0
    #: optional workload (library name, payload, or spec): each point
    #: then runs the fluid workload across the failure window, and its
    #: aggregate report joins the result and the digest.  None (the
    #: default) keeps the classic probe-only sweep.
    workload: Optional[Any] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "params",
                           resolve_topology_spec(self.params))
        if self.workload is not None:
            object.__setattr__(
                self, "workload",
                resolve_workload(self.workload).to_payload())


@dataclass
class SweepOutcome:
    """A sweep point's result plus its determinism fingerprint."""

    result: SweepResult
    digest: str


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


def _rack_pairs(topo: Topology) -> list[tuple[str, str]]:
    tors = topo.all_tors()
    return [(a, b) for a in tors for b in tors if a != b]


def check_all_pairs(
    deployment,
    topo: Topology,
    probe_ports: Iterable[int] = (40000, 40001, 40002, 40003),
) -> tuple[int, list[tuple[str, str, str]]]:
    """Trace several flows between every rack pair; collect failures."""
    unreachable = []
    checked = 0
    for src_tor, dst_tor in _rack_pairs(topo):
        src = topo.first_server_of(src_tor)
        dst = topo.first_server_of(dst_tor)
        checked += 1
        for port in probe_ports:
            try:
                trace_path(deployment, src, dst, src_port=port)
            except RuntimeError as exc:
                unreachable.append((src_tor, dst_tor, str(exc)))
                break
    return checked, unreachable


# ----------------------------------------------------------------------
# one sweep point = one task (top-level, so a pool worker or a
# supervised child can receive it)
# ----------------------------------------------------------------------
def run_sweep_point(spec: SweepPointSpec) -> SweepOutcome:
    """Build a fresh world, fail one interface, verify all-pairs
    reachability, and fingerprint the run."""
    world, topo, deployment = build_and_converge(
        spec.params, spec.stack, spec.seed)
    point = spec.point
    if spec.ambient_loss > 0.0:
        injector = FailureInjector(world)
        profile = ImpairmentProfile(loss=spec.ambient_loss)
        for p in fabric_failure_points(topo):
            # per-direction: each fabric interface impairs its tx side
            # once, so every link ends up lossy both ways
            injector.impair_link(p.node, p.interface, profile,
                                 direction="tx")
    engine = None
    if spec.workload is not None:
        engine = FluidWorkload(resolve_workload(spec.workload), topo,
                               deployment)
        engine.start()
    topo.node(point.node).interfaces[point.interface].set_admin(False)
    if engine is not None:
        engine.mark_epoch()  # capture the just-failed forwarding state
    world.run_for(deployment.detection_bound_us()
                  + spec.reconverge_margin_us)
    checked, unreachable = check_all_pairs(deployment, topo)
    result = SweepResult(point=point, pairs_checked=checked,
                         unreachable=unreachable)
    if engine is not None:
        result.workload = engine.finish().to_payload()
    digest = run_digest(world.trace, _result_payload(result))
    return SweepOutcome(result=result, digest=digest)


def _result_payload(result: SweepResult) -> dict:
    payload = {
        "point": [result.point.node, result.point.interface,
                  result.point.peer],
        "pairs_checked": result.pairs_checked,
        "unreachable": [list(u) for u in result.unreachable],
    }
    if result.workload is not None:
        payload["workload"] = result.workload
    return payload


def sweep_point_key(spec: SweepPointSpec) -> str:
    """Cache key: the full content of the task, nothing ambient — the
    stack enters as registry name + canonical params, never an enum."""
    extra = {}
    if spec.ambient_loss:
        # only a non-zero rate enters the key: classic (pristine) sweep
        # entries keep their pre-impairment cache identity
        extra["ambient_loss"] = spec.ambient_loss
    if spec.workload is not None:
        # likewise: the workload payload joins the key only for loaded
        # sweeps, so probe-only entries keep their cache identity
        extra["workload"] = spec.workload
    return task_key(
        "sweep-point",
        params=spec.params,
        stack=spec.stack.name,
        stack_params=spec.stack.params,
        timers=spec.stack.timers,
        seed=spec.seed,
        point=spec.point,
        reconverge_margin_us=spec.reconverge_margin_us,
        **extra,
    )


def encode_sweep_outcome(outcome: SweepOutcome) -> dict:
    return {**_result_payload(outcome.result), "digest": outcome.digest}


def decode_sweep_outcome(payload: dict) -> SweepOutcome:
    result = SweepResult(
        point=FailurePoint(*payload["point"]),
        pairs_checked=payload["pairs_checked"],
        unreachable=[tuple(u) for u in payload["unreachable"]],
        workload=payload.get("workload"),
    )
    return SweepOutcome(result=result, digest=payload["digest"])


# ----------------------------------------------------------------------
# the sweep driver
# ----------------------------------------------------------------------
def sweep_specs(
    params,
    stack,
    seed: int = 0,
    timers: Optional[StackTimers] = None,
    points: Optional[list[FailurePoint]] = None,
    reconverge_margin_us: int = 1 * SECOND,
    ambient_loss: float = 0.0,
    workload: Optional[Any] = None,
) -> list[SweepPointSpec]:
    """Expand a sweep into its independent per-point tasks."""
    spec = resolve_spec(stack, timers)
    if points is None:
        # probe build to enumerate the failure points
        world, topo, _ = build_and_converge(params, spec, seed)
        points = fabric_failure_points(topo)
    return [
        SweepPointSpec(params=params, stack=spec, seed=seed,
                       point=point,
                       reconverge_margin_us=reconverge_margin_us,
                       ambient_loss=ambient_loss, workload=workload)
        for point in points
    ]


def sweep_point_label(spec: SweepPointSpec) -> str:
    """Human task label for quarantine tables."""
    return (f"{spec.stack.name} {spec.point.node}:{spec.point.interface} "
            f"seed={spec.seed}")


SWEEP_POINT = TaskKind(
    name="sweep-point", run=run_sweep_point, key=sweep_point_key,
    encode=encode_sweep_outcome, decode=decode_sweep_outcome,
    label=sweep_point_label)


def single_failure_sweep_outcomes(
    params,
    stack,
    seed: int = 0,
    timers: Optional[StackTimers] = None,
    points: Optional[list[FailurePoint]] = None,
    reconverge_margin_us: int = 1 * SECOND,
    ambient_loss: float = 0.0,
    workload: Optional[Any] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    report: Optional[CampaignReport] = None,
    policy: Optional[RetryPolicy] = None,
) -> list[Optional[SweepOutcome]]:
    """The sweep with digests, through
    :func:`~repro.harness.executor.run_tasks`: under a ``policy``, hung
    points are killed by the watchdog, failing points retry, and a point
    that exhausts its attempts is quarantined — its slot comes back
    ``None`` and the rest of the sweep still completes."""
    specs = sweep_specs(params, stack, seed, timers, points,
                        reconverge_margin_us, ambient_loss, workload)
    return run_tasks(SWEEP_POINT, specs, jobs=jobs, cache=cache,
                     policy=policy, report=report)


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
