"""Loaded campaigns through the campaign executor: serial == parallel
digests, cache identity, and the supervised loaded sweep.  A ``repro
load`` run and a loaded sweep point are scenario programs with a
``workload`` op (``SCENARIO_RUN`` tasks)."""

from __future__ import annotations

import dataclasses

from repro.harness.cache import ResultCache
from repro.harness.executor import CampaignReport, RetryPolicy, run_tasks
from repro.harness.sweep import sweep_points, sweep_result, sweep_specs
from repro.scenario import (
    SCENARIO_RUN,
    scenario_task_key,
    workload_suite_specs,
)
from repro.topology.clos import two_pod_params
from repro.workload.spec import WorkloadSpec

TINY = WorkloadSpec(name="tiny", matrix="uniform", flows=400,
                    duration_ms=300, epoch_ms=25)


def _load_key(params=None, stack="mtp", workload=TINY, seed=0):
    spec, = workload_suite_specs(params or two_pod_params(), [workload],
                                 [stack], seed=seed)
    return scenario_task_key(spec)


def test_suite_serial_equals_jobs2():
    specs = workload_suite_specs(two_pod_params(), [TINY],
                                 ["mtp", "bgp-bfd"])
    serial = run_tasks(SCENARIO_RUN, specs, jobs=1)
    fanned = run_tasks(SCENARIO_RUN, specs, jobs=2)
    assert [o.digest for o in serial] == [o.digest for o in fanned]
    assert [o.metrics.workload for o in serial] == \
        [o.metrics.workload for o in fanned]


def test_suite_replays_from_cache(tmp_path):
    cache = ResultCache(tmp_path)
    specs = workload_suite_specs(two_pod_params(), [TINY], ["mtp"])
    first = CampaignReport()
    out1 = run_tasks(SCENARIO_RUN, specs, cache=cache, report=first)
    assert (first.executed, first.cached) == (1, 0)
    second = CampaignReport()
    out2 = run_tasks(SCENARIO_RUN, specs, cache=cache, report=second)
    assert (second.executed, second.cached) == (0, 1)
    assert out1[0].digest == out2[0].digest
    assert out1[0].metrics == out2[0].metrics


def test_workload_task_key_invalidates_on_every_component():
    base = _load_key()
    variants = [
        _load_key(seed=1),
        _load_key(stack="bgp-bfd"),
        _load_key(workload=dataclasses.replace(TINY, flows=401)),
        _load_key(workload=dataclasses.replace(TINY, epoch_ms=10)),
        _load_key(params=two_pod_params(tors_per_pod=3)),
    ]
    assert base not in set(variants)
    assert len(set(variants)) == len(variants)


def test_loaded_sweep_serial_equals_jobs2_supervised():
    """The acceptance pairing: a workload-carrying sweep, supervised,
    fans out with byte-identical digests."""
    points = sweep_points(two_pod_params())[:3]
    specs = sweep_specs(two_pod_params(), "mtp", points=points,
                        workload=TINY)
    runs = []
    for jobs in (1, 2):
        sup = CampaignReport()
        outcomes = run_tasks(SCENARIO_RUN, specs, jobs=jobs,
                             policy=RetryPolicy(max_attempts=2, seed=0),
                             report=sup)
        assert all(o is not None for o in outcomes)
        runs.append([o.digest for o in outcomes])
    assert runs[0] == runs[1]


def test_loaded_sweep_keeps_probe_only_cache_identity():
    """Attaching a workload must not disturb the plain sweep's cache
    keys: the probe-only program carries no workload op."""
    plain = sweep_specs(two_pod_params(), "mtp")[0]
    loaded = sweep_specs(two_pod_params(), "mtp", workload=TINY)[0]
    assert "workload" not in [e.op for e in plain.scenario.events]
    assert [e.workload for e in loaded.scenario.events
            if e.op == "workload"] == [TINY.to_payload()]
    assert scenario_task_key(plain) != scenario_task_key(loaded)
    rebuilt = sweep_specs(two_pod_params(), "mtp", workload=None)[0]
    assert scenario_task_key(rebuilt) == scenario_task_key(plain)


def test_loaded_sweep_attaches_reports():
    point = sweep_points(two_pod_params())[0]
    spec, = sweep_specs(two_pod_params(), "mtp", points=[point],
                        workload=TINY)
    outcome, = run_tasks(SCENARIO_RUN, [spec])
    result = sweep_result(point, outcome.metrics)
    assert result.ok
    wl = result.workload
    assert wl is not None
    assert wl["flows"] == 400
    assert wl["max_conservation_error"] < 1e-6
    # the hard failure happened inside the workload window, so at least
    # one epoch boundary was marked
    assert wl["epochs"] >= 2
