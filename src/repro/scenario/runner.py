"""Scenario execution: single runs, the campaign task kind, and the
paper's measured runs.

One scenario x stack x seed is an independent, picklable task
(:class:`ScenarioRunSpec`, the :data:`SCENARIO_RUN` kind — the one task
kind: every campaign is a :mod:`scenario family <repro.scenario.family>`
that expands to these), so campaigns run through
:func:`repro.harness.executor.run_tasks` and replay from the
content-addressed result cache.
Every run carries a SHA-256 run digest (trace + metrics, every
:class:`~repro.scenario.ScenarioMetrics` field), so serial and
``--jobs N`` execution are byte-comparable.  Scenario runs of one world
share its convergence: the kind names that world (``world_key``) and
builds it (``converge``), and the executor forks the runs that share it.

The failure experiment of Figs. 4-6 is the library's TC scenario, and
its multi-seed batches are the ``tc-seeds`` family; the packet-loss
experiment of Figs. 7/8 is the ``loss`` family.  The compiler is the
only code that drives a measured run.
"""

from __future__ import annotations

import statistics
from dataclasses import astuple, dataclass, field
from typing import Any, Optional

from repro.sim.units import SECOND
from repro.topology import TopologySpec, resolve_topology_spec
from repro.stacks import StackSpec, StackTimers, resolve_spec
from repro.harness.cache import task_key
from repro.harness.digest import run_digest
from repro.harness.experiments import build_and_converge, world_key
from repro.harness.executor import TaskKind, run_tasks
from repro.scenario.compiler import (
    METRIC_FIELDS,
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
    return task_key("scenario-run", params=spec.params,
                    stack=spec.stack.name, stack_params=spec.stack.params,
                    timers=spec.stack.timers,
                    scenario=spec.scenario.to_payload(), seed=spec.seed,
                    invariants=spec.invariants)


def _metrics_payload(metrics: ScenarioMetrics) -> dict:
    """Every :class:`ScenarioMetrics` field, a checkpoint as the list of
    its fields."""
    payload = {name: getattr(metrics, name) for name in METRIC_FIELDS}
    payload["checkpoints"] = [list(astuple(c)) for c in metrics.checkpoints]
    return payload


def encode_scenario_outcome(outcome: ScenarioOutcome) -> dict:
    return {**_metrics_payload(outcome.metrics), "digest": outcome.digest}


def decode_scenario_outcome(payload: dict) -> ScenarioOutcome:
    metrics = {name: payload[name] for name in METRIC_FIELDS}
    metrics["checkpoints"] = [Checkpoint(*c) for c in metrics["checkpoints"]]
    if metrics["unreachable"] is not None:
        metrics["unreachable"] = [tuple(u) for u in metrics["unreachable"]]
    return ScenarioOutcome(ScenarioMetrics(**metrics), payload["digest"])


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
