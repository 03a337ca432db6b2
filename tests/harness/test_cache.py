"""Edge-case tests for the on-disk result cache.

Covers the hazards that actually bite content-addressed caches: hash
instability across processes (PYTHONHASHSEED), missing invalidation when
timer bundles change, and corrupted or torn entries poisoning reruns.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bfd.session import BfdTimers
from repro.core.config import MtpTimers
from repro.sim.units import MILLISECOND
from repro.topology.clos import two_pod_params
from repro.harness.cache import CACHE_SCHEMA, ResultCache, task_key
from repro.harness.experiments import StackTimers
from repro.harness.executor import CampaignReport, TaskKind, run_tasks
from repro.scenario import (
    SCENARIO_RUN,
    SWEEP,
    TC_RUN,
    FailurePoint,
    ScenarioMetrics,
    ScenarioOutcome,
    decode_scenario_outcome,
    encode_scenario_outcome,
    run_scenario_task,
    scenario_task_key,
)
from repro.scenario.family import Tally, row_of

SRC = str(Path(__file__).resolve().parents[2] / "src")


POINT = FailurePoint("L-1-1", "eth1", "S-1-1")


def _spec():
    """A sweep point's scenario run."""
    return SWEEP.expand(two_pod_params(), ["mtp"], point=[POINT])[0]


# ----------------------------------------------------------------------
# key stability and invalidation
# ----------------------------------------------------------------------
def _key_in_subprocess(program: str, hashseed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hashseed,
               PYTHONPATH=SRC + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", program], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_task_key_stable_across_processes():
    """The key must not depend on per-process hash randomization."""
    program = (
        "from repro.topology.clos import two_pod_params\n"
        "from repro.scenario import SWEEP, FailurePoint, scenario_task_key\n"
        "spec = SWEEP.expand(two_pod_params(), ['mtp'],\n"
        "                    point=[FailurePoint('L-1-1', 'eth1', 'S-1-1')])[0]\n"
        "print(scenario_task_key(spec))\n"
    )
    keys = {_key_in_subprocess(program, h) for h in ("0", "12345")}
    keys.add(scenario_task_key(_spec()))
    assert len(keys) == 1, keys


def test_registry_spec_key_stable_across_processes():
    """Registry-name specs (with canonical params in the key) must hash
    identically across processes too — the sweep cache is shared."""
    program = (
        "from repro.topology.clos import two_pod_params\n"
        "from repro.scenario import TC_RUN, scenario_task_key\n"
        "spec = TC_RUN.expand(two_pod_params(), ['mtp-spray'], (3,))[0]\n"
        "print(scenario_task_key(spec))\n"
    )
    local = scenario_task_key(TC_RUN.expand(
        two_pod_params(), ["mtp-spray"], (3,))[0])
    keys = {_key_in_subprocess(program, h) for h in ("0", "9999")}
    keys.add(local)
    assert len(keys) == 1, keys


def test_key_invalidates_when_timers_change():
    base = scenario_task_key(_spec())
    for timers in (
        StackTimers(mtp=MtpTimers(hello_us=25 * MILLISECOND,
                                  dead_us=50 * MILLISECOND)),
        StackTimers(bfd=BfdTimers(tx_interval_us=300 * MILLISECOND)),
    ):
        changed = SWEEP.expand(two_pod_params(), ["mtp"], timers=timers,
                               point=[POINT])[0]
        assert scenario_task_key(changed) != base


def test_key_invalidates_on_every_component():
    base = scenario_task_key(_spec())
    variants = [
        SWEEP.expand(two_pod_params(tors_per_pod=3), ["mtp"],
                     point=[POINT])[0],
        SWEEP.expand(two_pod_params(), ["bgp"], point=[POINT])[0],
        SWEEP.expand(two_pod_params(), ["mtp"], seeds=(1,),
                     point=[POINT])[0],
        SWEEP.expand(two_pod_params(), ["mtp"],
                     point=[FailurePoint("L-1-1", "eth2", "S-1-2")])[0],
        SWEEP.expand(two_pod_params(), ["mtp"], point=[POINT],
                     ambient_loss=(0.05,))[0],
    ]
    assert base not in {scenario_task_key(v) for v in variants}


def test_task_key_family_namespacing():
    assert task_key("a", x=1) != task_key("b", x=1)
    assert task_key("a", x=1) == task_key("a", x=1)


# ----------------------------------------------------------------------
# corruption recovery
# ----------------------------------------------------------------------
def _entry_path(cache: ResultCache, key: str) -> Path:
    return cache.root / key[:2] / f"{key}.json"


def test_corrupted_entry_dropped_and_recomputed(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("ab" * 32, {"v": 1})
    path = _entry_path(cache, "ab" * 32)
    path.write_text("{ not json")
    assert cache.get("ab" * 32) is None
    assert cache.dropped == 1
    assert not path.exists()  # poisoned entry removed
    cache.put("ab" * 32, {"v": 2})
    assert cache.get("ab" * 32) == {"v": 2}


def test_truncated_entry_treated_as_corrupt(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("cd" * 32, {"v": 1})
    path = _entry_path(cache, "cd" * 32)
    path.write_text(path.read_text()[:10])  # torn write
    assert cache.get("cd" * 32) is None
    assert cache.dropped == 1


def test_key_mismatch_treated_as_corrupt(tmp_path):
    """An entry copied/renamed to the wrong slot must never be served."""
    cache = ResultCache(tmp_path)
    cache.put("ef" * 32, {"v": 1})
    good = _entry_path(cache, "ef" * 32)
    evil = _entry_path(cache, "ff" * 32)
    evil.parent.mkdir(parents=True, exist_ok=True)
    evil.write_text(good.read_text())
    assert cache.get("ff" * 32) is None
    assert cache.dropped == 1


def test_schema_bump_invalidates(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("0a" * 32, {"v": 1})
    path = _entry_path(cache, "0a" * 32)
    entry = json.loads(path.read_text())
    entry["schema"] = CACHE_SCHEMA + 1
    path.write_text(json.dumps(entry))
    assert cache.get("0a" * 32) is None


def test_stale_schema_entry_recomputed(tmp_path):
    """A pre-bump entry (schema N-1, e.g. the enum-keyed v1 layout) must
    be discarded and the slot recomputed through the runner — stale
    payloads never replay after a schema migration."""
    cache = ResultCache(tmp_path)
    spec = _spec()
    key = scenario_task_key(spec)
    path = _entry_path(cache, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(
        {"schema": CACHE_SCHEMA - 1, "key": key,
         "payload": {"stale": "v1-era entry"}}))
    report = CampaignReport()
    out = run_tasks(SCENARIO_RUN, [spec], cache=cache, report=report)
    assert (report.executed, report.cached) == (1, 0)
    assert cache.dropped == 1
    assert out[0].metrics.unreachable == []
    # the recomputed entry replaced the stale one and now replays
    replay = CampaignReport()
    out2 = run_tasks(SCENARIO_RUN, [spec], cache=cache, report=replay)
    assert (replay.executed, replay.cached) == (0, 1)
    assert out2[0].digest == out[0].digest


def test_miss_then_hit_counters(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get("12" * 32) is None
    cache.put("12" * 32, {"v": 1})
    assert cache.get("12" * 32) == {"v": 1}
    assert (cache.hits, cache.misses) == (1, 1)
    assert len(cache) == 1
    assert "12" * 32 in cache


# ----------------------------------------------------------------------
# payload round-trips
# ----------------------------------------------------------------------
def test_sweep_outcome_roundtrip():
    """A sweep point's scenario outcome survives the cache codec."""
    outcome = run_scenario_task(_spec())
    assert outcome.metrics.pairs_checked == 12
    broken = ScenarioOutcome(
        metrics=dataclasses.replace(
            outcome.metrics, unreachable=[("T-1", "T-4", "dead end")]),
        digest=outcome.digest)
    for before in (outcome, broken):
        restored = decode_scenario_outcome(encode_scenario_outcome(before))
        assert restored.metrics == before.metrics
        assert restored.digest == before.digest
        # tuple-ness of unreachable entries survives, so summaries stay
        # byte-identical between fresh and replayed sweeps
        point = {"point": POINT}
        tally = Tally([point], "", 0.0)
        assert (SWEEP.head([row_of(point, restored)], tally)
                == SWEEP.head([row_of(point, before)], tally))


def test_experiment_outcome_roundtrip():
    metrics = ScenarioMetrics(
        scenario="tc3", stack="bgp-bfd", seed=5, settle_us=812,
        convergence_us=1234, detection_us=None, control_bytes=97,
        update_count=1, blast_routers=["S-1-1", "T-1"],
    )
    outcome = ScenarioOutcome(metrics=metrics, digest="d" * 64)
    restored = decode_scenario_outcome(encode_scenario_outcome(outcome))
    assert restored.metrics == metrics
    assert restored.digest == outcome.digest


# ----------------------------------------------------------------------
# cache + executor integration
# ----------------------------------------------------------------------
def test_execute_tasks_replays_from_cache(tmp_path):
    cache = ResultCache(tmp_path)
    specs = SWEEP.expand(two_pod_params(), ["mtp"])[:2]
    first = CampaignReport()
    out1 = run_tasks(SCENARIO_RUN, specs, cache=cache, report=first)
    assert (first.executed, first.cached) == (2, 0)
    second = CampaignReport()
    out2 = run_tasks(SCENARIO_RUN, specs, cache=cache, report=second)
    assert (second.executed, second.cached) == (0, 2)
    assert [o.digest for o in out1] == [o.digest for o in out2]
    assert [o.metrics for o in out1] == [o.metrics for o in out2]


def test_execute_tasks_requires_full_codec():
    """A task kind carries its key and payload codec, so anything the
    executor can run it can also cache."""
    with pytest.raises(TypeError):
        TaskKind(name="scenario-run", run=run_scenario_task,
                 key=scenario_task_key)  # no encode/decode/label
