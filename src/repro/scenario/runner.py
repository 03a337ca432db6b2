"""Scenario execution: single runs and cached/parallel suites.

One scenario x stack x seed is an independent, picklable task
(:class:`ScenarioRunSpec`, the :data:`SCENARIO_RUN` kind), so suites run
through :func:`repro.harness.executor.run_tasks` and replay from the
content-addressed result cache exactly like sweeps and seed batches do.
Every run carries a SHA-256 run digest (trace + metrics), so serial and
``--jobs N`` execution are byte-comparable.  Scenario runs of one world
share its convergence: the kind names that world (``world_key``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.sim.units import SECOND
from repro.topology import TopologySpec, resolve_topology_spec
from repro.stacks import StackSpec, StackTimers, resolve_spec
from repro.harness.cache import ResultCache, task_key
from repro.harness.digest import run_digest
from repro.harness.experiments import build_and_converge
from repro.harness.executor import (
    CampaignReport,
    RetryPolicy,
    TaskKind,
    WorldSnapshots,
    run_tasks,
    world_key,
)
from repro.scenario.compiler import (
    Checkpoint,
    ScenarioMetrics,
    compile_scenario,
)
from repro.scenario.model import Scenario


@dataclass(frozen=True)
class ScenarioRunSpec:
    """One scenario run as an independent, picklable task."""

    params: TopologySpec
    stack: StackSpec
    scenario: Scenario
    seed: int
    invariants: bool = False   # attach the monitor on workload-free runs

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
    snapshots: Optional[WorldSnapshots] = None,
):
    """Converge the stack on a private fabric (cold, or restored from
    ``snapshots``), then execute the scenario on it."""
    spec = resolve_spec(stack, timers)
    # the horizon feeds the converge budget ceiling only indirectly: the
    # scenario itself plays after convergence, on the measured clock
    world, topo, deployment = build_and_converge(
        params, spec, seed, max_converge_us=60 * SECOND, snapshots=snapshots)
    program = compile_scenario(scenario, world, topo, deployment,
                               invariants=invariants)
    metrics = program.execute(spec.name, seed)
    if return_world:
        return metrics, world
    return metrics


def run_scenario_task(
    spec: ScenarioRunSpec,
    snapshots: Optional[WorldSnapshots] = None,
) -> ScenarioOutcome:
    """One scenario run and its digest (the :data:`SCENARIO_RUN` kind)."""
    metrics, world = run_scenario(spec.scenario, spec.params, spec.stack,
                                  spec.seed, return_world=True,
                                  invariants=spec.invariants,
                                  snapshots=snapshots)
    digest = run_digest(world.trace, _metrics_payload(metrics))
    return ScenarioOutcome(metrics=metrics, digest=digest)


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
        "checkpoints": [[c.label, c.time_us, c.update_count, c.update_bytes]
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
        checkpoints=[Checkpoint(label=c[0], time_us=c[1], update_count=c[2],
                                update_bytes=c[3])
                     for c in payload["checkpoints"]],
        workload=payload.get("workload"),
    )
    return ScenarioOutcome(metrics=metrics, digest=payload["digest"])


# ----------------------------------------------------------------------
# suite runner: scenarios x stacks through the campaign executor
# ----------------------------------------------------------------------
def scenario_suite_specs(
    params,
    scenarios: Sequence[Scenario],
    stacks: Sequence,
    seed: int = 0,
    timers: Optional[StackTimers] = None,
    invariants: bool = False,
) -> list[ScenarioRunSpec]:
    """Expand a suite into its independent per-run tasks, stack-major so
    one stack's scenarios sit together in reports."""
    return [
        ScenarioRunSpec(params=params, stack=resolve_spec(stack, timers),
                        scenario=scenario, seed=seed, invariants=invariants)
        for stack in stacks
        for scenario in scenarios
    ]


def scenario_task_label(spec: ScenarioRunSpec) -> str:
    """Human task label for quarantine tables."""
    return (f"{spec.stack.name}/{spec.scenario.name} seed={spec.seed}")


SCENARIO_RUN = TaskKind(
    name="scenario-run", run=run_scenario_task, key=scenario_task_key,
    encode=encode_scenario_outcome, decode=decode_scenario_outcome,
    label=scenario_task_label,
    world_key=lambda spec: world_key(spec.params, spec.stack, spec.seed))


def run_scenario_suite(
    params,
    scenarios: Sequence[Scenario],
    stacks: Sequence,
    seed: int = 0,
    timers: Optional[StackTimers] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    report: Optional[CampaignReport] = None,
    policy: Optional[RetryPolicy] = None,
    invariants: bool = False,
) -> list[Optional[ScenarioOutcome]]:
    """Run every scenario on every stack through
    :func:`~repro.harness.executor.run_tasks`; under a ``policy``,
    quarantined runs come back ``None``."""
    specs = scenario_suite_specs(params, scenarios, stacks, seed, timers,
                                 invariants=invariants)
    return run_tasks(SCENARIO_RUN, specs, jobs=jobs, cache=cache,
                     policy=policy, report=report)
