"""Unit tests for the run-digest primitives (repro.harness.digest).

The digests are the foundation of the parallel runner's determinism
guard, so they must be (a) stable for identical inputs, (b) sensitive to
every field of the trace, and (c) independent of process-level hash
randomization.
"""

from __future__ import annotations

import enum
import hashlib
import json
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.net.world import World
from repro.sim.trace import TraceRecord
from repro.harness import digest
from repro.harness.digest import (
    DIGEST_SCHEMA,
    canonical_json,
    payload_digest,
    run_digest,
    stable_seed,
    trace_digest,
)


def _records():
    return [
        TraceRecord(10, "A", "hello.tx", "sent", {"bytes": 64}),
        TraceRecord(20, "B", "hello.rx", "got", {"bytes": 64, "port": "eth1"}),
    ]


def test_trace_digest_deterministic():
    assert trace_digest(_records()) == trace_digest(_records())


def test_trace_digest_sensitive_to_every_field():
    base = trace_digest(_records())
    for mutate in (
        lambda r: TraceRecord(99, r.node, r.category, r.message, r.data),
        lambda r: TraceRecord(r.time, "Z", r.category, r.message, r.data),
        lambda r: TraceRecord(r.time, r.node, "other", r.message, r.data),
        lambda r: TraceRecord(r.time, r.node, r.category, "edited", r.data),
        lambda r: TraceRecord(r.time, r.node, r.category, r.message,
                              {"bytes": 65}),
    ):
        recs = _records()
        recs[0] = mutate(recs[0])
        assert trace_digest(recs) != base


def test_trace_digest_sensitive_to_order():
    recs = _records()
    assert trace_digest(recs) != trace_digest(list(reversed(recs)))


def test_canonical_json_sorts_keys():
    assert canonical_json({"b": 1, "a": 2}) == canonical_json(
        dict([("a", 2), ("b", 1)]))


def test_payload_digest_differs_on_content():
    assert payload_digest({"x": 1}) != payload_digest({"x": 2})


def test_run_digest_combines_trace_and_payload():
    recs = _records()
    d = run_digest(recs, {"metric": 1})
    assert d == run_digest(_records(), {"metric": 1})
    assert d != run_digest(recs, {"metric": 2})
    assert d != run_digest([], {"metric": 1})


def test_world_trace_digest_reproducible():
    """Two identically-seeded worlds running the same schedule produce
    the identical trace digest — the property the fan-out relies on."""

    def build_and_run():
        world = World(seed=3)
        rng = world.rng.stream("test")
        for i in range(20):
            delay = int(rng.uniform(1, 100))
            world.sim.schedule_after(
                delay, world.trace.emit, "N", "tick", f"i={i}", )
        world.run()
        return trace_digest(world.trace)

    assert build_and_run() == build_and_run()


def test_stable_seed_properties():
    s = stable_seed("batch", 0, 1)
    assert s == stable_seed("batch", 0, 1)
    assert s != stable_seed("batch", 0, 2)
    assert s != stable_seed("batch", 1, 1)
    assert 0 <= s < 2 ** 63


# ----------------------------------------------------------------------
# The renderer's oracle: the per-record loop ``trace_digest`` replaced
# (one ``json.dumps`` — a fresh encoder — and one ``update`` per record),
# kept here verbatim.  The shared encoder, the single-int fast path and
# the batched join must hash to exactly this for any log.
# ----------------------------------------------------------------------
def reference_trace_digest(records) -> str:
    h = hashlib.sha256(f"trace:v{DIGEST_SCHEMA}\n".encode())
    for rec in records:
        data = json.dumps(rec.data, sort_keys=True, separators=(",", ":"),
                          default=repr) if rec.data else ""
        h.update(f"{rec.time}|{rec.node}|{rec.category}|{rec.message}"
                 f"|{data}\n".encode())
    return h.hexdigest()


class _Colour(enum.Enum):  # not JSON: rendered through ``default=repr``
    RED = "red"


class _Level(enum.IntEnum):  # an int subclass that is not ``int``
    HIGH = 3


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
_KEYS = st.one_of(st.sampled_from(["bytes", "port", "n", "caf\u00e9", "a\"b",
                                   "x y", "", "\\", "\n"]), _TEXT)
_LEAVES = st.one_of(
    st.integers(min_value=-2**70, max_value=2**70), st.booleans(), st.none(),
    st.floats(allow_nan=True, allow_infinity=True), _TEXT,
    st.sampled_from([_Colour.RED, _Level.HIGH]))
_VALUES = st.recursive(
    _LEAVES, lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(_KEYS, inner, max_size=3)),
    max_leaves=6)
_ONE_KEY = st.one_of(_KEYS, st.integers(0, 9))  # JSON stringifies an int key
_DATA = st.one_of(
    st.just({}),
    st.builds(lambda k, v: {k: v}, _ONE_KEY, st.integers(-2**70, 2**70)),
    st.builds(lambda k, v: {k: v}, _ONE_KEY,
              st.sampled_from([True, False, _Level.HIGH, _Colour.RED])),
    st.dictionaries(_KEYS, _VALUES, max_size=4))
_RECORDS = st.lists(
    st.builds(TraceRecord, st.integers(0, 2**40), _TEXT,
              st.sampled_from(["mtp.keepalive.tx", "bgp.update", "a|b"]),
              st.one_of(_TEXT, st.just("eth1|eth2")), _DATA),
    max_size=12)


@settings(max_examples=2 * settings.default.max_examples)
@given(records=_RECORDS, batch=st.integers(1, 5))
def test_trace_digest_equals_per_record_reference(records, batch):
    expected = reference_trace_digest(records)
    # a small batch makes logs longer than one batch, with ragged tails
    with mock.patch.object(digest, "_BATCH", batch):
        assert trace_digest(records) == expected
        assert trace_digest(r for r in records) == expected
    assert trace_digest(records) == expected


def test_trace_digest_reference_on_a_real_log_and_across_batches():
    """A real keepalive-heavy log, at the production batch size, with a
    length that is not a multiple of it."""
    world = World(seed=3)
    for i in range(2 * digest._BATCH + 17):
        world.trace.emit("S1_1", "mtp.keepalive.tx", f"eth{i % 4}", bytes=15)
    world.trace.emit("S1_1", "mtp.flag", "eth1", up=True)
    expected = reference_trace_digest(world.trace.records)
    assert trace_digest(world.trace) == expected
    assert trace_digest(iter(world.trace.records)) == expected
    assert trace_digest([TraceRecord(1, "A", "c", "m", {"up": True})]) != \
        trace_digest([TraceRecord(1, "A", "c", "m", {"up": 1})])
