"""Sweep points, chaos points and ``repro load`` runs are scenario
programs: each is held to the hand-driven sequence it replaced
(``tests/harness/reference_points.py``) — the same row and the same
trace digest (for a sweep point, apart from the injector's own
``fail.*`` records, which the hand-driven admin-down never wrote).
Oracle and program each run on a forked copy of one converged world."""

from __future__ import annotations

from functools import partial

import pytest

from repro.harness.chaos import chaos_result, chaos_specs, result_payload
from repro.harness.digest import trace_digest
from repro.harness.executor import TaskKind, run_tasks
from repro.harness.experiments import build_and_converge
from repro.harness.sweep import sweep_points, sweep_result, sweep_specs
from repro.scenario import run_scenario, workload_suite_specs
from repro.topology.clos import two_pod_params
from repro.workload import WorkloadReport, canonical_workloads

from tests.harness.reference_points import (
    reference_chaos_point,
    reference_sweep_point,
    reference_workload_run,
)


def _call(run, world):
    return run(world)


def _on_one_world(stack, runs):
    """Each of ``runs`` (a function of a converged world) on a private
    copy of one converged 2-PoD world (seed 0): the executor converges
    it once and forks every run but the last."""
    kind = TaskKind(
        name="on-one-world", run=_call, key=repr, encode=list,
        decode=tuple, label=repr, world_key=lambda _run: stack,
        converge=lambda _run: build_and_converge(two_pod_params(), stack, 0))
    return run_tasks(kind, runs)


def _program(spec, world):
    return run_scenario(spec.scenario, spec.params, spec.stack, spec.seed,
                        return_world=True, world=world)


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

    def program(point, spec, world):
        metrics, world = _program(spec, world)
        return sweep_result(point, metrics), _without_injections(world.trace)

    def oracle(point, world):
        expected, reference = reference_sweep_point(
            params, stack, 0, point, ambient_loss=ambient, world=world)
        return expected, _without_injections(reference.trace)

    outcomes = _on_one_world(stack, [
        run for point, spec in zip(points, specs)
        for run in (partial(program, point, spec), partial(oracle, point))])
    for point, got, want in zip(points, outcomes[::2], outcomes[1::2]):
        assert got == want, point


@pytest.mark.parametrize("stack", ["mtp", "bgp-bfd"])
def test_chaos_program_matches_reference(stack):
    params = two_pod_params()
    rates = (0.0, 0.1, 0.3)

    def program(spec, world):
        metrics, world = _program(spec, world)
        return (result_payload(chaos_result(spec, metrics)),
                trace_digest(world.trace))

    def oracle(rate, world):
        expected, reference = reference_chaos_point(params, stack, 0, rate,
                                                    world=world)
        return result_payload(expected), trace_digest(reference.trace)

    outcomes = _on_one_world(stack, [
        run for rate, spec in zip(rates, chaos_specs(params, [stack],
                                                     rates=rates))
        for run in (partial(program, spec), partial(oracle, rate))])
    for rate, got, want in zip(rates, outcomes[::2], outcomes[1::2]):
        assert got == want, rate


def test_load_program_matches_reference():
    params = two_pod_params()
    presets = list(canonical_workloads().values())
    specs = workload_suite_specs(params, presets, ["mtp"])

    def program(spec, world):
        metrics, world = _program(spec, world)
        return (WorkloadReport.from_payload(metrics.workload),
                trace_digest(world.trace))

    def oracle(preset, world):
        expected, reference = reference_workload_run(params, "mtp", 0, preset,
                                                     world=world)
        return expected, trace_digest(reference.trace)

    outcomes = _on_one_world("mtp", [
        run for preset, spec in zip(presets, specs)
        for run in (partial(program, spec), partial(oracle, preset))])
    for preset, got, want in zip(presets, outcomes[::2], outcomes[1::2]):
        assert got == want, preset.name
