"""Robustness sweep: sampled points fast, exhaustive under -m slow."""

from __future__ import annotations

import pytest

from repro.harness.executor import run_tasks
from repro.scenario import SCENARIO_RUN, SWEEP, fabric_failure_points
from repro.scenario.family import Tally
from repro.topology import build_topology
from repro.topology.clos import two_pod_params


def _points():
    return fabric_failure_points(build_topology(two_pod_params()))


def _sweep(kind, points):
    specs = SWEEP.expand(two_pod_params(), [kind], point=points)
    return SWEEP.rows(specs, run_tasks(SCENARIO_RUN, specs))


def _summary(rows):
    return "\n".join(SWEEP.head(rows, Tally([], "", 0.0)))


def test_failure_point_enumeration():
    points = _points()
    # 2-PoD: 8 ToR-agg links + 8 agg-top links, both ends = 32 points
    assert len(points) == 32
    assert all(p.node != p.peer for p in points)


# the ids these cases had when they ran over the deleted stack enum
@pytest.mark.parametrize("kind", ["mtp", "bgp"],
                         ids=["StackKind.MTP", "StackKind.BGP"])
def test_sampled_failures_leave_no_blackholes(kind):
    points = _points()
    sample = points[:: max(1, len(points) // 6)]  # ~6 spread-out points
    rows = _sweep(kind, sample)
    assert not any(row["unreachable"] for row in rows), _summary(rows)
    assert all(row["pairs_checked"] == 12 for row in rows)  # 4 ToRs -> 12 pairs


@pytest.mark.slow
@pytest.mark.parametrize("kind", ["mtp", "bgp"],
                         ids=["StackKind.MTP", "StackKind.BGP"])
def test_exhaustive_single_failure_sweep(kind):
    rows = _sweep(kind, _points())
    assert len(rows) == 32
    assert not any(row["unreachable"] for row in rows), _summary(rows)
