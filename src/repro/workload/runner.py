"""Standalone workload runs: build, converge, load, solve — cached.

One workload x topology x stack x seed is an independent, picklable
task (:class:`WorkloadRunSpec`, the :data:`WORKLOAD_RUN` kind) that
runs through the same campaign executor as sweeps and scenario suites:
serial and ``--jobs N`` executions produce byte-identical digests, and
loaded campaigns resume from the content-addressed result cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.sim.units import MILLISECOND, SECOND
from repro.topology import TopologySpec, resolve_topology_spec
from repro.stacks import StackSpec, StackTimers, resolve_spec
from repro.harness.cache import ResultCache, task_key
from repro.harness.digest import run_digest
from repro.harness.experiments import build_and_converge
from repro.harness.executor import (
    CampaignReport,
    RetryPolicy,
    TaskKind,
    run_tasks,
)
from repro.workload.engine import FluidWorkload, WorkloadReport
from repro.workload.spec import WorkloadSpec, resolve_workload


@dataclass(frozen=True)
class WorkloadRunSpec:
    """One loaded run as an independent, picklable task."""

    params: TopologySpec
    stack: StackSpec
    workload: WorkloadSpec
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "params",
                           resolve_topology_spec(self.params))
        object.__setattr__(self, "workload",
                           resolve_workload(self.workload))


@dataclass
class WorkloadOutcome:
    """A loaded run's report plus its determinism fingerprint."""

    report: WorkloadReport
    digest: str


def run_workload(
    workload,
    params,
    stack,
    seed: int = 0,
    timers: Optional[StackTimers] = None,
    return_world: bool = False,
):
    """Build a fresh fabric, converge the stack, run the workload on
    the converged forwarding state (the fault-free baseline; scenario
    runs layer faults via the ``workload`` op instead)."""
    spec = resolve_spec(stack, timers)
    wl = resolve_workload(workload)
    world, topo, deployment = build_and_converge(
        params, spec, seed, max_converge_us=60 * SECOND)
    engine = FluidWorkload(wl, topo, deployment)
    engine.start()
    world.run_for(wl.duration_ms * MILLISECOND)
    report = engine.finish()
    if return_world:
        return report, world
    return report


def run_workload_task(spec: WorkloadRunSpec) -> WorkloadOutcome:
    """One loaded run and its digest (the :data:`WORKLOAD_RUN` kind)."""
    report, world = run_workload(spec.workload, spec.params, spec.stack,
                                 spec.seed, return_world=True)
    digest = run_digest(world.trace, report.to_payload())
    return WorkloadOutcome(report=report, digest=digest)


# ----------------------------------------------------------------------
# cache plumbing: key, encode, decode
# ----------------------------------------------------------------------
def workload_task_key(spec: WorkloadRunSpec) -> str:
    """Content hash of one loaded run: the canonical workload payload
    enters the key, so editing a spec invalidates only its entries."""
    return task_key(
        "workload-run",
        params=spec.params,
        stack=spec.stack.name,
        stack_params=spec.stack.params,
        timers=spec.stack.timers,
        workload=spec.workload.to_payload(),
        seed=spec.seed,
    )


def encode_workload_outcome(outcome: WorkloadOutcome) -> dict:
    return {**outcome.report.to_payload(), "digest": outcome.digest}


def decode_workload_outcome(payload: dict) -> WorkloadOutcome:
    report = WorkloadReport.from_payload(
        {k: v for k, v in payload.items() if k != "digest"})
    return WorkloadOutcome(report=report, digest=payload["digest"])


# ----------------------------------------------------------------------
# suite runner: workloads x stacks through the campaign executor
# ----------------------------------------------------------------------
def workload_suite_specs(
    params,
    workloads: Sequence,
    stacks: Sequence,
    seed: int = 0,
    timers: Optional[StackTimers] = None,
) -> list[WorkloadRunSpec]:
    """Expand a loaded suite into independent per-run tasks, stack-major
    so one stack's workloads sit together in reports."""
    return [
        WorkloadRunSpec(params=params, stack=resolve_spec(stack, timers),
                        workload=resolve_workload(workload), seed=seed)
        for stack in stacks
        for workload in workloads
    ]


def workload_task_label(spec: WorkloadRunSpec) -> str:
    """Human task label for quarantine tables."""
    return f"{spec.stack.name}/{spec.workload.name} seed={spec.seed}"


WORKLOAD_RUN = TaskKind(
    name="workload-run", run=run_workload_task, key=workload_task_key,
    encode=encode_workload_outcome, decode=decode_workload_outcome,
    label=workload_task_label)


def run_workload_suite(
    params,
    workloads: Sequence,
    stacks: Sequence,
    seed: int = 0,
    timers: Optional[StackTimers] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    report: Optional[CampaignReport] = None,
    policy: Optional[RetryPolicy] = None,
) -> list[Optional[WorkloadOutcome]]:
    """Run every workload on every stack through
    :func:`~repro.harness.executor.run_tasks`; under a ``policy``,
    quarantined runs come back ``None``."""
    specs = workload_suite_specs(params, workloads, stacks, seed, timers)
    return run_tasks(WORKLOAD_RUN, specs, jobs=jobs, cache=cache,
                     policy=policy, report=report)
