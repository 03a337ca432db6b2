"""Robustness sweep: sampled points fast, exhaustive under -m slow."""

from __future__ import annotations

import pytest

from repro.harness.executor import run_tasks
from repro.harness.experiments import StackKind
from repro.harness.sweep import (
    summarize,
    sweep_points,
    sweep_result,
    sweep_specs,
)
from repro.scenario import SCENARIO_RUN
from repro.topology.clos import two_pod_params


def _sweep(kind, points):
    outcomes = run_tasks(SCENARIO_RUN, sweep_specs(two_pod_params(), kind,
                                                   points=points))
    return [sweep_result(p, o.metrics) for p, o in zip(points, outcomes)]


def test_failure_point_enumeration():
    points = sweep_points(two_pod_params())
    # 2-PoD: 8 ToR-agg links + 8 agg-top links, both ends = 32 points
    assert len(points) == 32
    assert all(p.node != p.peer for p in points)


@pytest.mark.parametrize("kind", [StackKind.MTP, StackKind.BGP])
def test_sampled_failures_leave_no_blackholes(kind):
    points = sweep_points(two_pod_params())
    sample = points[:: max(1, len(points) // 6)]  # ~6 spread-out points
    results = _sweep(kind, sample)
    assert all(r.ok for r in results), summarize(results)
    assert all(r.pairs_checked == 12 for r in results)  # 4 ToRs -> 12 pairs


@pytest.mark.slow
@pytest.mark.parametrize("kind", [StackKind.MTP, StackKind.BGP])
def test_exhaustive_single_failure_sweep(kind):
    results = _sweep(kind, sweep_points(two_pod_params()))
    assert len(results) == 32
    assert all(r.ok for r in results), summarize(results)
