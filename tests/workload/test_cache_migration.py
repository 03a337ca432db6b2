"""Cache schema-4 migration: the workload engine's bump.

Schema 4 marks the arrival of the flow-level workload engine — loaded
sweep/chaos/scenario results embed workload reports, so pre-workload
(schema-3) entries must never replay.  Two guarantees:

* schema-3 entries — whatever key they sit under — miss cleanly and
  the slot is recomputed, never replayed;
* workload-free runs are untouched: their payloads carry no workload
  key, so golden fig4/5/6 digests reproduce byte-identically through
  the schema-4 cache.
"""

from __future__ import annotations

import json

from repro.harness.cache import CACHE_SCHEMA, ResultCache
from repro.harness.executor import CampaignReport, run_tasks
from repro.harness.experiments import (
    FAILURE_RUN,
    encode_experiment_outcome,
    experiment_task_key,
    run_experiment_task,
    ExperimentSpec,
)
from repro.stacks import resolve_spec
from repro.topology import two_pod_params
from repro.workload.runner import (
    WORKLOAD_RUN,
    WorkloadRunSpec,
    workload_task_key,
)
from repro.workload.spec import WorkloadSpec

TINY = WorkloadSpec(name="tiny", matrix="uniform", flows=300,
                    duration_ms=200, epoch_ms=25)


def _entry_path(cache: ResultCache, key: str):
    return cache.root / key[:2] / f"{key}.json"


def _plant_stale(cache: ResultCache, key: str, schema: int) -> None:
    path = _entry_path(cache, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(
        {"schema": schema, "key": key,
         "payload": {"stale": f"schema-{schema} era"}}))


def test_schema_is_at_least_4():
    """The workload payloads joined the key space at schema 4; later
    layers (e.g. the liveness chaos fields at 5) may bump further, but
    a bump below 4 would resurrect pre-workload entries."""
    assert CACHE_SCHEMA >= 4


def test_schema3_workload_entry_misses_cleanly(tmp_path):
    """A schema-3 entry planted at a workload task's key is dropped and
    the run recomputed; the fresh schema-4 entry replays afterwards."""
    cache = ResultCache(tmp_path)
    spec = WorkloadRunSpec(params=two_pod_params(),
                           stack=resolve_spec("mtp"), workload=TINY,
                           seed=0)
    _plant_stale(cache, workload_task_key(spec), schema=3)

    report = CampaignReport()
    out = run_tasks(WORKLOAD_RUN, [spec], cache=cache, report=report)
    assert (report.executed, report.cached) == (1, 0)
    assert cache.dropped == 1
    assert out[0].report.flows == 300

    replay = CampaignReport()
    out2 = run_tasks(WORKLOAD_RUN, [spec], cache=cache, report=replay)
    assert (replay.executed, replay.cached) == (0, 1)
    assert out2[0].digest == out[0].digest
    assert out2[0].report == out[0].report


def test_schema3_experiment_entry_misses_cleanly(tmp_path):
    """The bump invalidates every family, not just workload tasks."""
    cache = ResultCache(tmp_path)
    spec = ExperimentSpec(params=two_pod_params(),
                          stack=resolve_spec("mtp"), case_name="TC1",
                          seed=0)
    _plant_stale(cache, experiment_task_key(spec), schema=3)
    report = CampaignReport()
    out = run_tasks(FAILURE_RUN, [spec], cache=cache, report=report)
    assert (report.executed, report.cached) == (1, 0)
    assert cache.dropped == 1
    assert out[0].result.convergence_us >= 0


def test_workload_free_golden_digest_unchanged_by_the_bump(tmp_path):
    """The fig-4 anchor reproduces byte-identically through the
    schema-4 cache: workload-free payloads carry no workload key, so
    nothing about the pre-workload computation changed."""
    spec = ExperimentSpec(params=two_pod_params(),
                          stack=resolve_spec("mtp"), case_name="TC4",
                          seed=0)
    direct = run_experiment_task(spec)
    via_cache = run_tasks(FAILURE_RUN, [spec], cache=ResultCache(tmp_path))
    assert via_cache[0].digest == direct.digest
    # the frozen golden fig-4 value (see tests/topology/test_cache_migration)
    assert direct.result.convergence_us == 200
    payload = encode_experiment_outcome(direct)
    assert "workload" not in payload
