"""Run digests: a content fingerprint of one experiment run.

The engine is bit-for-bit deterministic for a fixed seed (events are
ordered by (time, priority, scheduling instant, sequence)), so two runs
of the same task must produce the *identical* trace and metrics.  A digest turns that property
into something checkable across process boundaries: the parallel runner
hashes each run's trace log plus its result payload and the determinism
guard asserts serial and fanned-out execution agree byte for byte.

Digests use SHA-256 over a canonical rendering — never Python's builtin
``hash()``, which is salted per process (PYTHONHASHSEED) and would make
cross-process comparison meaningless.
"""

from __future__ import annotations

import hashlib
import json
from itertools import islice
from typing import Any, Iterable

from repro.sim.trace import TraceLog, TraceRecord

# Bump when the canonical rendering changes — or, as for 2, what a trace
# contains: a keepalive on a quiet MR-MTP link direction is accounted
# for, not sent, and leaves no ``mtp.keepalive.tx`` record (DESIGN
# "Steady-state frame path") — or what a payload holds: 3 writes every
# metrics field (``via_port`` included) and ranks equally busy
# ``hot_links`` by name.  Embedded in every digest so stale cache
# entries from an older scheme can never compare equal.
DIGEST_SCHEMA = 3


# One encoder for the process: ``json.dumps`` with keyword arguments
# builds a fresh ``JSONEncoder`` per call, which was most of the cost of
# hashing a trace log record by record.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                           default=repr).encode

# Records rendered per ``sha256.update``: a join per record allocates a
# bytes object each, a join per log holds the whole rendering at once.
_BATCH = 4096


def canonical_json(payload: Any) -> str:
    """Deterministic JSON rendering: sorted keys, no whitespace noise,
    ``repr`` fallback for non-JSON values (enums, dataclasses...)."""
    return _encode(payload)


def _record_line(rec: TraceRecord) -> str:
    data = rec.data
    if len(data) == 1:
        # ``{"bytes":15}`` and its kin are most of any log: one int under
        # an identifier key needs no escaping, sorting or encoder.  bool
        # subclasses int and must render ``true``, hence ``type(...) is``.
        (key, value), = data.items()
        plain = (type(value) is int and type(key) is str
                 and key.isascii() and key.isidentifier())
        text = f'{{"{key}":{value}}}' if plain else _encode(data)
    else:
        text = _encode(data) if data else ""
    return f"{rec.time}|{rec.node}|{rec.category}|{rec.message}|{text}\n"


def trace_digest(trace: TraceLog | Iterable[TraceRecord]) -> str:
    """SHA-256 over the full trace log in emission order."""
    records = iter(trace.records if isinstance(trace, TraceLog) else trace)
    h = hashlib.sha256(f"trace:v{DIGEST_SCHEMA}\n".encode())
    while batch := list(islice(records, _BATCH)):
        h.update("".join(map(_record_line, batch)).encode())
    return h.hexdigest()


def payload_digest(payload: Any) -> str:
    """SHA-256 of a canonical JSON rendering of a result payload."""
    h = hashlib.sha256(f"payload:v{DIGEST_SCHEMA}\n".encode())
    h.update(canonical_json(payload).encode())
    return h.hexdigest()


def run_digest(trace: TraceLog | Iterable[TraceRecord], payload: Any) -> str:
    """The per-run fingerprint: trace digest + metrics digest combined.

    This is what the determinism guard compares between the serial and
    parallel paths and what the result cache stores alongside payloads.
    """
    h = hashlib.sha256(f"run:v{DIGEST_SCHEMA}\n".encode())
    h.update(trace_digest(trace).encode())
    h.update(b"|")
    h.update(payload_digest(payload).encode())
    return h.hexdigest()


def stable_seed(*components: Any) -> int:
    """Derive a 63-bit task seed from arbitrary components, stably across
    processes and interpreter restarts (unlike ``hash()``)."""
    h = hashlib.sha256(canonical_json(list(components)).encode())
    return int.from_bytes(h.digest()[:8], "big") >> 1
