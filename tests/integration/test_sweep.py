"""Robustness sweep: every single-link failure point of the 2-PoD fabric."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.harness.executor import run_tasks
from repro.harness.experiments import detection_bound_us
from repro.scenario import SCENARIO_RUN, SWEEP, fabric_failure_points
from repro.scenario.library import RECONVERGE_MARGIN_MS
from repro.scenario.family import Tally
from repro.topology import build_topology
from repro.sim.units import MILLISECOND
from repro.topology.clos import two_pod_params


def _points():
    return fabric_failure_points(build_topology(two_pod_params()))


def test_failure_point_enumeration():
    points = _points()
    # 2-PoD: 8 ToR-agg links + 8 agg-top links, both ends = 32 points
    assert len(points) == 32
    assert all(p.node != p.peer for p in points)


# the ids the first two cases had when they ran over the deleted stack
# enum; a graceful-restart stack's check waits out its stale hold, in
# which the helpers still forward into the failed side
@pytest.mark.parametrize(
    "kind", ["mtp", "bgp", "mtp-gr", "bgp-gr"],
    ids=["StackKind.MTP", "StackKind.BGP", "mtp-gr", "bgp-gr"])
def test_exhaustive_single_failure_sweep(kind):
    specs = SWEEP.expand(two_pod_params(), [kind], point=_points())
    rows = SWEEP.rows(specs, run_tasks(SCENARIO_RUN, specs))
    assert len(rows) == 32
    assert not any(row["unreachable"] for row in rows), "\n".join(
        SWEEP.head(rows, Tally([], "", 0.0)))
    assert all(row["pairs_checked"] == 12 for row in rows)  # 4 ToRs -> 12 pairs


@pytest.mark.parametrize("kind", ["mtp-gr", "bgp-gr"])
def test_graceful_restart_sweep_reports_the_stale_window(kind):
    """A one-sided failure looks like a restarting neighbour to a
    graceful-restart stack: the aggs keep forwarding into the admin-down
    ``L-1-1:eth1`` through their stale hold.  The sweep's check waits
    the hold out; moved back to the detection bound plus the margin, it
    lands inside the hold, where all three pairs into ``L-1-1`` drop on
    the ECMP choice through it — a blackhole only a verdict over every
    choice is sure to see."""
    (point,) = [p for p in _points()
                if (p.node, p.interface) == ("L-1-1", "eth1")]
    (spec,) = SWEEP.expand(two_pod_params(), [kind], point=[point])
    *lead, check = spec.scenario.events
    inside = replace(check, at_ms=-(-detection_bound_us(kind) // MILLISECOND)
                     + RECONVERGE_MARGIN_MS)
    assert inside.at_ms < check.at_ms
    spec = replace(spec, scenario=replace(spec.scenario,
                                          events=(*lead, inside)))
    (row,) = SWEEP.rows([spec], run_tasks(SCENARIO_RUN, [spec]))
    assert sorted(row["unreachable"]) == [
        (src, "L-1-1", "drop") for src in ("L-1-2", "L-2-1", "L-2-2")]
