"""Cache schema-3 migration: topology-registry re-keying.

Schema 3 re-keys every task by TopologySpec (registry name + canonical
params) instead of the raw ClosParams dataclass.  Two guarantees:

* schema-2 entries — whatever key they sit under — are ignored cleanly
  and recomputed, never replayed;
* the *results* are unchanged by the re-keying: golden figure metrics
  and run digests reproduce byte-identically through the registry path
  (that is what makes the refactor a refactor).
"""

from __future__ import annotations

import json

from repro.harness.cache import CACHE_SCHEMA, ResultCache, task_key
from repro.harness.executor import CampaignReport, run_tasks
from repro.harness.experiments import (
    FAILURE_RUN,
    ExperimentSpec,
    experiment_task_key,
    run_experiment_task,
)
from repro.stacks import resolve_spec
from repro.topology import ClosParams, resolve_topology_spec, two_pod_params


def _spec() -> ExperimentSpec:
    return ExperimentSpec(params=two_pod_params(), stack=resolve_spec("mtp"),
                          case_name="TC4", seed=0)


def _entry_path(cache: ResultCache, key: str):
    return cache.root / key[:2] / f"{key}.json"


def test_schema_is_at_least_3():
    # schema 3 introduced the topology-registry re-keying this file
    # covers; later bumps (4: the workload engine) keep its guarantees
    assert CACHE_SCHEMA >= 3


def test_experiment_key_derives_from_topology_spec():
    """Legacy ClosParams call sites and registry-first call sites land
    on the SAME schema-3 key — the normalization happens in the spec."""
    legacy = ExperimentSpec(params=ClosParams(), stack=resolve_spec("mtp"),
                            case_name="TC1", seed=0)
    registry = ExperimentSpec(params=resolve_topology_spec("clos"),
                              stack=resolve_spec("mtp"),
                              case_name="TC1", seed=0)
    assert legacy.params == registry.params
    assert experiment_task_key(legacy) == experiment_task_key(registry)
    # and the old-style component (raw dataclass) keys differently, so
    # schema-2 entries cannot even collide with schema-3 lookups
    old_style = task_key("failure-run", params=ClosParams(),
                         stack="mtp", case="TC1", seed=0)
    assert old_style != experiment_task_key(legacy)


def test_schema2_entry_ignored_and_recomputed(tmp_path):
    """A schema-2 entry planted at the new key must be dropped, the task
    recomputed, and the fresh entry must replay afterwards."""
    cache = ResultCache(tmp_path)
    spec = _spec()
    key = experiment_task_key(spec)
    path = _entry_path(cache, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(
        {"schema": 2, "key": key,
         "payload": {"stale": "ClosParams-keyed era"}}))

    report = CampaignReport()
    out = run_tasks(FAILURE_RUN, [spec], cache=cache, report=report)
    assert (report.executed, report.cached) == (1, 0)
    assert cache.dropped == 1

    replay_report = CampaignReport()
    replay = run_tasks(FAILURE_RUN, [spec], cache=cache,
                       report=replay_report)
    assert (replay_report.executed, replay_report.cached) == (0, 1)
    assert replay[0].digest == out[0].digest
    assert replay[0].result == out[0].result


def test_golden_digest_identical_across_rekeying(tmp_path):
    """Re-keying must not change the computation: the run digest of a
    cache-mediated registry-path run equals the direct run's digest."""
    direct = run_experiment_task(_spec())
    cache = ResultCache(tmp_path)
    via_cache = run_tasks(FAILURE_RUN, [_spec()], cache=cache)
    assert via_cache[0].digest == direct.digest
    assert via_cache[0].result.convergence_us == direct.result.convergence_us
    # golden fig4 anchor: the registry path reproduces the frozen value
    assert direct.result.convergence_us == 200
