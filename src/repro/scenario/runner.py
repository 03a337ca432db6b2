"""Scenario execution: single runs, the campaign task kind, and the
paper's measured runs.

One scenario x stack x seed is an independent, picklable task
(:class:`ScenarioRunSpec`, the :data:`SCENARIO_RUN` kind — the one task
kind: every campaign is a :mod:`scenario family <repro.scenario.family>`
that expands to these), so campaigns run through
:func:`repro.harness.executor.run_tasks` and replay from the
content-addressed result cache.
Every run carries a SHA-256 run digest (trace + metrics), so serial and
``--jobs N`` execution are byte-comparable.  Scenario runs of one world
share its convergence: the kind names that world (``world_key``) and
builds it (``converge``), and the executor forks the runs that share it.

The failure experiment of Figs. 4-6 is the library's TC scenario, and
its multi-seed batches are the ``tc-seeds`` family; the packet-loss
experiment of Figs. 7/8 is a two-event program compiled on the converged
world once the crossing flow is known.  The compiler is the only code
that drives a measured run.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.sim.units import MILLISECOND, SECOND
from repro.topology import TopologySpec, resolve_topology_spec
from repro.stacks import StackSpec, StackTimers, resolve_spec
from repro.harness.cache import task_key
from repro.harness.digest import run_digest
from repro.harness.experiments import build_and_converge, world_key
from repro.harness.executor import TaskKind, run_tasks
from repro.scenario.compiler import (
    Checkpoint,
    ScenarioMetrics,
    compile_scenario,
)
from repro.scenario.model import Scenario, ScenarioError, ScenarioEvent


@dataclass(frozen=True)
class ScenarioRunSpec:
    """One scenario run as an independent, picklable task."""

    params: TopologySpec
    stack: StackSpec
    scenario: Scenario
    seed: int
    invariants: bool = False   # attach the monitor on workload-free runs
    # the family grid point this run expands (axis -> value); a label,
    # never part of the task's key
    point: dict[str, Any] = field(default_factory=dict, compare=False,
                                  repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params",
                           resolve_topology_spec(self.params))


@dataclass
class ScenarioOutcome:
    """A scenario run's metrics plus its determinism fingerprint."""

    metrics: ScenarioMetrics
    digest: str


def run_scenario(
    scenario: Scenario,
    params,
    stack,
    seed: int = 0,
    timers: Optional[StackTimers] = None,
    return_world: bool = False,
    invariants: bool = False,
    world=None,
):
    """Converge the stack on a private fabric, then execute the scenario
    on it.  A ``world`` — the ``(world, topo, deployment)`` that
    :func:`converge_world` builds for these inputs — is played on in
    place instead of converging one."""
    spec = resolve_spec(stack, timers)
    # the horizon feeds the converge budget ceiling only indirectly: the
    # scenario itself plays after convergence, on the measured clock
    world, topo, deployment = world or build_and_converge(
        params, spec, seed, max_converge_us=60 * SECOND)
    program = compile_scenario(scenario, world, topo, deployment,
                               invariants=invariants)
    metrics = program.execute(spec.name, seed)
    if return_world:
        return metrics, world
    return metrics


def run_scenario_task(spec: ScenarioRunSpec, world=None) -> ScenarioOutcome:
    """One scenario run and its digest (the :data:`SCENARIO_RUN` kind),
    on ``world`` if given (see :func:`run_scenario`)."""
    metrics, world = run_scenario(spec.scenario, spec.params, spec.stack,
                                  spec.seed, return_world=True,
                                  invariants=spec.invariants, world=world)
    digest = run_digest(world.trace, _metrics_payload(metrics))
    return ScenarioOutcome(metrics=metrics, digest=digest)


def converge_world(spec: ScenarioRunSpec):
    """The converged ``(world, topo, deployment)`` a run of ``spec``
    starts from — what :func:`run_scenario` builds when given none."""
    return build_and_converge(spec.params, spec.stack, spec.seed,
                              max_converge_us=60 * SECOND)


def scenario_world_key(spec: ScenarioRunSpec) -> str:
    """The key of :func:`converge_world`'s inputs: runs with equal keys
    start from equal worlds."""
    return world_key(spec.params, spec.stack, spec.seed,
                     max_converge_us=60 * SECOND)


# ----------------------------------------------------------------------
# cache plumbing: key, encode, decode
# ----------------------------------------------------------------------
def scenario_task_key(spec: ScenarioRunSpec) -> str:
    """Content hash of one scenario run: the canonical scenario payload
    enters the key, so editing a scenario invalidates only its entries."""
    components = dict(
        params=spec.params,
        stack=spec.stack.name,
        stack_params=spec.stack.params,
        timers=spec.stack.timers,
        scenario=spec.scenario.to_payload(),
        seed=spec.seed,
    )
    if spec.invariants:
        # only monitored workload-free runs carry the key component, so
        # every pre-existing cache key stays unchanged
        components["invariants"] = True
    return task_key("scenario-run", **components)


def _metrics_payload(metrics: ScenarioMetrics) -> dict:
    payload = {
        "scenario": metrics.scenario,
        "stack": metrics.stack,
        "seed": metrics.seed,
        "settle_us": metrics.settle_us,
        "convergence_us": metrics.convergence_us,
        "detection_us": metrics.detection_us,
        "control_bytes": metrics.control_bytes,
        "update_count": metrics.update_count,
        "blast_routers": list(metrics.blast_routers),
        "sent": metrics.sent,
        "received": metrics.received,
        "duplicated": metrics.duplicated,
        "out_of_order": metrics.out_of_order,
        "blackhole_us": metrics.blackhole_us,
        "false_positives": metrics.false_positives,
        "flaps": metrics.flaps,
        "route_churn": metrics.route_churn,
        "checkpoints": [[c.label, c.time_us, c.update_count, c.update_bytes,
                         c.detections, c.false_positives, c.flaps,
                         c.suppressions, c.suppression_us, c.mttr_us,
                         c.availability]
                        for c in metrics.checkpoints],
    }
    # invariant-monitor counters appear only when nonzero, so unmonitored
    # (and anomaly-free) payloads — and their run digests — stay
    # byte-identical with the pre-monitor era
    for name in ("fib_loops", "fib_loop_us", "fib_blackholes",
                 "fib_blackhole_us"):
        value = getattr(metrics, name)
        if value:
            payload[name] = value
    if metrics.workload is not None:
        # only loaded runs carry the key: workload-free payloads (and so
        # their run digests) stay byte-identical with the pre-workload era
        payload["workload"] = metrics.workload
    if metrics.pairs_checked is not None:
        # likewise only programs with a reachability op
        payload["pairs_checked"] = metrics.pairs_checked
        payload["unreachable"] = [list(u) for u in metrics.unreachable]
    return payload


def encode_scenario_outcome(outcome: ScenarioOutcome) -> dict:
    return {**_metrics_payload(outcome.metrics), "digest": outcome.digest}


def decode_scenario_outcome(payload: dict) -> ScenarioOutcome:
    metrics = ScenarioMetrics(
        scenario=payload["scenario"],
        stack=payload["stack"],
        seed=payload["seed"],
        settle_us=payload["settle_us"],
        convergence_us=payload["convergence_us"],
        detection_us=payload["detection_us"],
        control_bytes=payload["control_bytes"],
        update_count=payload["update_count"],
        blast_routers=list(payload["blast_routers"]),
        sent=payload["sent"],
        received=payload["received"],
        duplicated=payload["duplicated"],
        out_of_order=payload["out_of_order"],
        blackhole_us=payload["blackhole_us"],
        false_positives=payload["false_positives"],
        flaps=payload["flaps"],
        route_churn=payload["route_churn"],
        fib_loops=payload.get("fib_loops", 0),
        fib_loop_us=payload.get("fib_loop_us", 0),
        fib_blackholes=payload.get("fib_blackholes", 0),
        fib_blackhole_us=payload.get("fib_blackhole_us", 0),
        checkpoints=[Checkpoint(*c) for c in payload["checkpoints"]],
        workload=payload.get("workload"),
        pairs_checked=payload.get("pairs_checked"),
        unreachable=(None if "unreachable" not in payload
                     else [tuple(u) for u in payload["unreachable"]]),
    )
    return ScenarioOutcome(metrics=metrics, digest=payload["digest"])


def scenario_task_label(spec: ScenarioRunSpec) -> str:
    """Human task label for quarantine tables."""
    return (f"{spec.stack.name}/{spec.scenario.name} seed={spec.seed}")


SCENARIO_RUN = TaskKind(
    name="scenario-run", run=run_scenario_task, key=scenario_task_key,
    encode=encode_scenario_outcome, decode=decode_scenario_outcome,
    label=scenario_task_label, world_key=scenario_world_key,
    converge=converge_world)


# ----------------------------------------------------------------------
# failure experiment (Figs. 4-6): the library's TC scenarios
# ----------------------------------------------------------------------
def run_failure_experiment(
    params,
    stack,
    case_name: str,
    seed: int = 0,
    timers: Optional[StackTimers] = None,
    return_world: bool = False,
):
    """One failure run: the TC scenario of ``case_name`` — settle at a
    per-seed keepalive phase, fail the interface, measure until updates
    quiesce (:data:`~repro.scenario.library.TC_SCENARIOS`)."""
    from repro.scenario.library import TC_SCENARIOS

    return run_scenario(TC_SCENARIOS[case_name], params, stack, seed,
                        timers, return_world=return_world)


def average_failure_runs(
    params,
    stack,
    case_name: str,
    seeds: tuple[int, ...] = (0, 1, 2),
    timers: Optional[StackTimers] = None,
    jobs: int = 1,
    cache=None,
) -> ScenarioMetrics:
    """Multi-run average, as the paper's plotted values are: the mean
    convergence, bytes and updates and the widest blast set (seed -1;
    the other fields stay at their defaults)."""
    from repro.scenario.library import TC_SCENARIOS, TC_SEEDS

    spec = resolve_spec(stack, timers)
    runs = [o.metrics for o in run_tasks(
        SCENARIO_RUN, TC_SEEDS.expand(params, [spec], seeds,
                                      case=(case_name,)),
        jobs=jobs, cache=cache)]
    return ScenarioMetrics(
        scenario=TC_SCENARIOS[case_name].name,
        stack=spec.name,
        seed=-1,
        settle_us=0,
        convergence_us=round(statistics.mean(r.convergence_us for r in runs)),
        detection_us=None,
        control_bytes=round(statistics.mean(r.control_bytes for r in runs)),
        update_count=round(statistics.mean(r.update_count for r in runs)),
        blast_routers=max((r.blast_routers for r in runs), key=len),
    )


# ----------------------------------------------------------------------
# packet-loss experiment (Figs. 7 and 8)
# ----------------------------------------------------------------------
#: the flow runs this long before the failure, and this long after it
LOSS_LEAD_MS = 500
LOSS_TAIL_MS = 5000


class NoCrossingFlowError(ScenarioError):
    """The packet-loss program's racks have no flow across the failing
    link on this fabric, so the run measured nothing about the failure."""


@dataclass
class PacketLossResult:
    """One Fig. 7/8 row: the loss program's traffic counters and the
    crossing flow's source port."""

    stack: str
    case: str
    direction: str
    seed: int
    sent: int
    received: int
    duplicated: int
    out_of_order: int
    src_port: int

    @property
    def lost(self) -> int:
        return self.sent - self.received


def run_packet_loss_experiment(
    params,
    stack,
    case_name: str,
    direction: str = "near",
    seed: int = 0,
    timers: Optional[StackTimers] = None,
    rate_pps: int = 1000,
) -> PacketLossResult:
    """Traffic between the paper's first and last racks with a failure
    mid-flow.  ``near``: the sender's rack adjoins the failure (Fig. 7);
    ``far``: the sender is at the far end (Fig. 8).

    The run is a scenario compiled on the converged world: no settle,
    the flow at 0 ms on the first source port whose ECMP path crosses
    the failing link (``via``), the failure :data:`LOSS_LEAD_MS` in,
    stopped by the update-quiesce rule, whose quiet window lets the last
    packets drain.  A run where no flow crosses the link raises
    :class:`NoCrossingFlowError`."""
    if direction not in ("near", "far"):
        raise ValueError(f"direction must be near/far, got {direction!r}")
    spec = resolve_spec(stack, timers)
    world, topo, deployment = build_and_converge(params, spec, seed)

    near_tor = topo.tors[0][0][0]
    far_tor = topo.tors[0][-1][-1]  # last pod's last ToR, e.g. VID 14 in 2-PoD
    src_tor, dst_tor = (near_tor, far_tor) if direction == "near" else (far_tor, near_tor)
    src_host = topo.first_server_of(src_tor)
    dst_host = topo.first_server_of(dst_tor)

    gap_us = SECOND // rate_pps
    count = (LOSS_LEAD_MS + LOSS_TAIL_MS) * MILLISECOND // gap_us
    program = compile_scenario(Scenario(
        name=f"loss-{case_name.lower()}-{direction}",
        settle=0,
        events=(
            ScenarioEvent(op="traffic_burst", at_ms=0, src=src_host,
                          dst=dst_host, rate_pps=rate_pps, count=count,
                          via=f"case:{case_name}"),
            ScenarioEvent(op="iface_down", at_ms=LOSS_LEAD_MS,
                          target=f"case:{case_name}"),
        ),
    ), world, topo, deployment)
    metrics = program.execute(spec.name, seed)
    burst = program.bursts[0]
    if not burst.crossed:
        case = topo.failure_cases()[case_name]
        raise NoCrossingFlowError(
            f"no flow from {src_host} to {dst_host} crosses "
            f"{case.node}<->{case.peer_node}"
        )
    return PacketLossResult(
        stack=spec.name,
        case=case_name,
        direction=direction,
        seed=seed,
        sent=metrics.sent,
        received=metrics.received,
        duplicated=metrics.duplicated,
        out_of_order=metrics.out_of_order,
        src_port=burst.src_port,
    )
