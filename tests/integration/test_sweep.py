"""Robustness sweep: sampled points fast, exhaustive under -m slow."""

from __future__ import annotations

import pytest

from repro.harness.experiments import StackKind, build_and_converge
from repro.harness.sweep import (
    fabric_failure_points,
    single_failure_sweep_outcomes,
    summarize,
)
from repro.topology.clos import two_pod_params


def test_failure_point_enumeration():
    world, topo, dep = build_and_converge(two_pod_params(), StackKind.MTP)
    points = fabric_failure_points(topo)
    # 2-PoD: 8 ToR-agg links + 8 agg-top links, both ends = 32 points
    assert len(points) == 32
    assert all(p.node != p.peer for p in points)


@pytest.mark.parametrize("kind", [StackKind.MTP, StackKind.BGP])
def test_sampled_failures_leave_no_blackholes(kind):
    world, topo, dep = build_and_converge(two_pod_params(), kind)
    points = fabric_failure_points(topo)
    sample = points[:: max(1, len(points) // 6)]  # ~6 spread-out points
    results = [o.result for o in single_failure_sweep_outcomes(
        two_pod_params(), kind, points=sample)]
    assert all(r.ok for r in results), summarize(results)
    assert all(r.pairs_checked == 12 for r in results)  # 4 ToRs -> 12 pairs


@pytest.mark.slow
@pytest.mark.parametrize("kind", [StackKind.MTP, StackKind.BGP])
def test_exhaustive_single_failure_sweep(kind):
    results = [o.result for o in single_failure_sweep_outcomes(
        two_pod_params(), kind)]
    assert len(results) == 32
    assert all(r.ok for r in results), summarize(results)
