"""Cache schema-3 migration: topology-registry re-keying.

Schema 3 re-keys every task by TopologySpec (registry name + canonical
params) instead of the raw ClosParams dataclass.  Two guarantees, shown
on a failure run (a ``SCENARIO_RUN`` task):

* schema-2 entries — whatever key they sit under — are ignored cleanly
  and recomputed, never replayed;
* the *results* are unchanged by the re-keying: golden figure metrics
  and run digests reproduce byte-identically through the registry path.
"""

from __future__ import annotations

import json

from repro.harness.cache import ResultCache
from repro.harness.executor import CampaignReport, run_tasks
from repro.scenario import (
    SCENARIO_RUN,
    TC_RUN,
    run_scenario_task,
    scenario_task_key,
)
from repro.topology import two_pod_params


def _spec():
    return TC_RUN.expand(two_pod_params(), ["mtp"], case=("TC4",))[0]


def _entry_path(cache: ResultCache, key: str):
    return cache.root / key[:2] / f"{key}.json"


def test_schema2_entry_ignored_and_recomputed(tmp_path):
    """A schema-2 entry planted at the new key must be dropped, the task
    recomputed, and the fresh entry must replay afterwards."""
    cache = ResultCache(tmp_path)
    spec = _spec()
    key = scenario_task_key(spec)
    path = _entry_path(cache, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(
        {"schema": 2, "key": key,
         "payload": {"stale": "ClosParams-keyed era"}}))

    report = CampaignReport()
    out = run_tasks(SCENARIO_RUN, [spec], cache=cache, report=report)
    assert (report.executed, report.cached) == (1, 0)
    assert cache.dropped == 1

    replay_report = CampaignReport()
    replay = run_tasks(SCENARIO_RUN, [spec], cache=cache,
                       report=replay_report)
    assert (replay_report.executed, replay_report.cached) == (0, 1)
    assert replay[0].digest == out[0].digest
    assert replay[0].metrics == out[0].metrics


def test_golden_digest_identical_across_rekeying(tmp_path):
    """Re-keying must not change the computation: the run digest of a
    cache-mediated registry-path run equals the direct run's digest."""
    direct = run_scenario_task(_spec())
    via_cache = run_tasks(SCENARIO_RUN, [_spec()],
                          cache=ResultCache(tmp_path))
    assert via_cache[0].digest == direct.digest
    assert via_cache[0].metrics == direct.metrics
    # golden fig4 anchor: the registry path reproduces the frozen value
    assert direct.metrics.convergence_us == 200
