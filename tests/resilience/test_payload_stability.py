"""Serialization contract for the monitor counters: the ``fib_*``
fields are written into every cache payload, zero or not, round-trip
through it, and a payload from before they existed never reaches the
decoder (its cache schema is an older one, so it misses)."""

from __future__ import annotations

import json

from repro.harness.cache import CACHE_SCHEMA, ResultCache
from repro.scenario.compiler import ScenarioMetrics
from repro.scenario.runner import (
    ScenarioOutcome,
    decode_scenario_outcome,
    encode_scenario_outcome,
)

FIB = ("fib_loops", "fib_loop_us", "fib_blackholes", "fib_blackhole_us")


def metrics(**overrides) -> ScenarioMetrics:
    base = dict(scenario="tc1", stack="mtp", seed=0, settle_us=100,
                convergence_us=200, detection_us=50, control_bytes=10,
                update_count=2, blast_routers=["S-1-1"])
    base.update(overrides)
    return ScenarioMetrics(**base)


def test_zero_counters_are_omitted_from_the_payload():
    """Zero counters are written as zeros: one payload shape for every
    run (the name is the contract's old one)."""
    payload = encode_scenario_outcome(
        ScenarioOutcome(metrics=metrics(), digest="d" * 16))
    assert {name: payload[name] for name in FIB} == dict.fromkeys(FIB, 0)


def test_nonzero_counters_roundtrip():
    before = metrics(fib_loops=1, fib_loop_us=250, fib_blackholes=2,
                     fib_blackhole_us=9000)
    payload = encode_scenario_outcome(
        ScenarioOutcome(metrics=before, digest="d" * 16))
    assert payload["fib_loops"] == 1
    assert payload["fib_blackhole_us"] == 9000
    after = decode_scenario_outcome(json.loads(json.dumps(payload))).metrics
    assert after == before


def test_pre_monitor_payloads_still_decode(tmp_path):
    """A payload without the counters was written under an older cache
    schema: the cache drops it as a miss, so the decoder never sees it."""
    payload = encode_scenario_outcome(
        ScenarioOutcome(metrics=metrics(), digest="d" * 16))
    for name in FIB:
        del payload[name]
    cache = ResultCache(tmp_path)
    key = "ab" * 32
    path = cache.root / key[:2] / f"{key}.json"
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps(
        {"schema": CACHE_SCHEMA - 1, "key": key, "payload": payload}))
    assert cache.get(key) is None
    assert cache.dropped == 1
