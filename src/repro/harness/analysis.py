"""Multi-seed statistics.

The paper's plotted values "were averaged over multiple runs"; with the
timing-noise knob (``jitter`` in the timer bundles) each seed produces a
distinct run, and this module aggregates them: mean, standard deviation,
extrema, and stack-vs-stack ratios for any numeric field of the
experiment results.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.stacks import StackTimers, resolve_spec
from repro.scenario.compiler import ScenarioMetrics
from repro.harness.executor import run_tasks
from repro.scenario.library import TC_SEEDS
from repro.scenario.runner import SCENARIO_RUN


@dataclass(frozen=True)
class Aggregate:
    """Summary statistics of one metric over seeds."""

    mean: float
    stdev: float
    minimum: float
    maximum: float
    n: int

    @classmethod
    def of(cls, values: Sequence[float]) -> "Aggregate":
        if not values:
            raise ValueError("no values to aggregate")
        return cls(
            mean=statistics.fmean(values),
            stdev=statistics.stdev(values) if len(values) > 1 else 0.0,
            minimum=min(values),
            maximum=max(values),
            n=len(values),
        )

    def __str__(self) -> str:
        return f"{self.mean:.2f} ± {self.stdev:.2f} (n={self.n})"


@dataclass
class FailureStudy:
    """Aggregated failure-experiment metrics for one (stack, case)."""

    stack: str
    case: str
    convergence_ms: Aggregate
    control_bytes: Aggregate
    blast_radius: Aggregate
    runs: list[ScenarioMetrics]


def failure_study(
    params,
    stack,
    case: str,
    seeds: Iterable[int],
    timers: Optional[StackTimers] = None,
) -> FailureStudy:
    """Run the failure experiment once per seed and aggregate."""
    spec = resolve_spec(stack, timers)
    runs = [o.metrics for o in run_tasks(
        SCENARIO_RUN, TC_SEEDS.expand(params, [spec], list(seeds),
                                      case=(case,)))]
    return FailureStudy(
        stack=spec.name,
        case=case,
        convergence_ms=Aggregate.of([r.convergence_ms for r in runs]),
        control_bytes=Aggregate.of([float(r.control_bytes) for r in runs]),
        blast_radius=Aggregate.of([float(r.blast_radius) for r in runs]),
        runs=runs,
    )


def speedup(numerator: Aggregate, denominator: Aggregate) -> float:
    """Mean-over-mean ratio (e.g. BGP convergence / MR-MTP convergence)."""
    if denominator.mean == 0:
        raise ZeroDivisionError("denominator aggregate has zero mean")
    return numerator.mean / denominator.mean


def compare_stacks(
    params,
    case: str,
    seeds: Iterable[int],
    stacks: Sequence = ("mtp", "bgp", "bgp-bfd"),
    timers: Optional[StackTimers] = None,
) -> dict:
    """One :func:`failure_study` per stack, keyed by registry name."""
    seeds = list(seeds)
    return {
        stack: failure_study(params, stack, case, seeds, timers)
        for stack in stacks
    }
