"""Sweep points, chaos points and ``repro load`` runs are scenario
programs: each is held to the hand-driven sequence it replaced
(``tests/harness/reference_points.py``) — the same row and the same
trace digest (for a sweep point, apart from the injector's own
``fail.*`` records, which the hand-driven admin-down never wrote).
Oracle and program restore one converged world."""

from __future__ import annotations

import pytest

from repro.harness.chaos import chaos_result, chaos_specs, result_payload
from repro.harness.digest import trace_digest
from repro.harness.executor import WorldSnapshots, world_key
from repro.harness.sweep import sweep_points, sweep_result, sweep_specs
from repro.scenario import run_scenario, workload_suite_specs
from repro.stacks import resolve_spec
from repro.topology.clos import two_pod_params
from repro.workload import WorkloadReport, canonical_workloads

from tests.harness.reference_points import (
    reference_chaos_point,
    reference_sweep_point,
    reference_workload_run,
)


def _snapshots(stack):
    """One converged 2-PoD world (seed 0) shared by the oracle and the
    program of every point."""
    key = world_key(two_pod_params(), resolve_spec(stack), 0)
    return WorldSnapshots([key, key])


def _run(spec, snapshots):
    return run_scenario(spec.scenario, spec.params, spec.stack, spec.seed,
                        return_world=True, snapshots=snapshots)


def _without_injections(trace):
    return trace_digest(r for r in trace.records
                        if not r.category.startswith("fail."))


@pytest.mark.parametrize("ambient", [0.0, 0.05])
@pytest.mark.parametrize("stack", ["mtp", "bgp-bfd"])
def test_sweep_program_matches_reference(stack, ambient):
    params = two_pod_params()
    points = sweep_points(params)
    specs = sweep_specs(params, stack, points=points, ambient_loss=ambient)
    assert len(specs) == 32
    snapshots = _snapshots(stack)
    for point, spec in zip(points, specs):
        metrics, world = _run(spec, snapshots)
        expected, reference = reference_sweep_point(
            params, stack, 0, point, ambient_loss=ambient,
            snapshots=snapshots)
        assert sweep_result(point, metrics) == expected, point
        assert (_without_injections(world.trace)
                == _without_injections(reference.trace)), point


@pytest.mark.parametrize("stack", ["mtp", "bgp-bfd"])
def test_chaos_program_matches_reference(stack):
    params = two_pod_params()
    rates = (0.0, 0.1, 0.3)
    snapshots = _snapshots(stack)
    for rate, spec in zip(rates, chaos_specs(params, [stack], rates=rates)):
        metrics, world = _run(spec, snapshots)
        expected, reference = reference_chaos_point(params, stack, 0, rate,
                                                    snapshots=snapshots)
        assert (result_payload(chaos_result(spec, metrics))
                == result_payload(expected)), rate
        assert trace_digest(world.trace) == trace_digest(reference.trace)


def test_load_program_matches_reference():
    params = two_pod_params()
    presets = list(canonical_workloads().values())
    specs = workload_suite_specs(params, presets, ["mtp"])
    snapshots = _snapshots("mtp")
    for preset, spec in zip(presets, specs):
        metrics, world = _run(spec, snapshots)
        expected, reference = reference_workload_run(params, "mtp", 0, preset,
                                                     snapshots=snapshots)
        assert WorkloadReport.from_payload(metrics.workload) == expected
        assert trace_digest(world.trace) == trace_digest(reference.trace)
