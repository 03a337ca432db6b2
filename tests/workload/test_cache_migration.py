"""Cache schema-4 migration: the workload engine's bump.

Schema 4 marks the arrival of the flow-level workload engine — loaded
results embed workload reports, so pre-workload (schema-3) entries must
never replay.  Two guarantees, shown on a failure run (a
``SCENARIO_RUN`` task):

* schema-3 entries miss cleanly and the slot is recomputed, never
  replayed — so ``CACHE_SCHEMA`` can never drop back to 3;
* workload-free runs are untouched: their payloads carry a null
  workload, so the golden fig-4 digest reproduces byte-identically
  through the cache.
"""

from __future__ import annotations

import json

from repro.harness.cache import ResultCache
from repro.harness.executor import CampaignReport, run_tasks
from repro.scenario import (
    SCENARIO_RUN,
    TC_RUN,
    encode_scenario_outcome,
    run_scenario_task,
    scenario_task_key,
)
from repro.topology import two_pod_params


def _spec(case_name: str):
    return TC_RUN.expand(two_pod_params(), ["mtp"], case=(case_name,))[0]


def test_schema3_experiment_entry_misses_cleanly(tmp_path):
    """A schema-3 entry at a failure run's key is dropped and the run
    recomputed; the fresh entry replays afterwards."""
    cache = ResultCache(tmp_path)
    spec = _spec("TC1")
    key = scenario_task_key(spec)
    path = cache.root / key[:2] / f"{key}.json"
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps(
        {"schema": 3, "key": key, "payload": {"stale": "schema-3 era"}}))

    report = CampaignReport()
    out = run_tasks(SCENARIO_RUN, [spec], cache=cache, report=report)
    assert (report.executed, report.cached) == (1, 0)
    assert cache.dropped == 1
    assert out[0].metrics.convergence_us >= 0

    replay = CampaignReport()
    again = run_tasks(SCENARIO_RUN, [spec], cache=cache, report=replay)
    assert (replay.executed, replay.cached) == (0, 1)
    assert again[0].digest == out[0].digest


def test_workload_free_golden_digest_unchanged_by_the_bump(tmp_path):
    """The fig-4 anchor reproduces byte-identically through the cache:
    a workload-free payload's workload is null, so nothing about the
    pre-workload computation changed."""
    spec = _spec("TC4")
    direct = run_scenario_task(spec)
    via_cache = run_tasks(SCENARIO_RUN, [spec], cache=ResultCache(tmp_path))
    assert via_cache[0].digest == direct.digest
    # the frozen golden fig-4 value (see tests/topology/test_cache_migration)
    assert direct.metrics.convergence_us == 200
    assert encode_scenario_outcome(direct)["workload"] is None
