"""On-disk result cache for experiment fan-out.

Each cache entry is one converged experiment task — a sweep point or a
seeded failure run — keyed by a SHA-256 content hash of everything that
determines its outcome: topology parameters, the stack's registry name
and canonical deploy params, the full timer bundle, the failure
point/case, the seed and a schema version.  Because
the simulator is deterministic, a key collision-free hit can be replayed
instead of re-run: repeated sweeps and CI reruns skip converged points.

Layout: ``<root>/<key[:2]>/<key>.json`` — a two-level fan-out so a large
sweep doesn't put thousands of files in one directory.  Every entry
stores its own key and schema version; a mismatch (or unparseable JSON,
or a torn write) is treated as corruption and the entry is dropped and
recomputed, never trusted.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from enum import Enum
from pathlib import Path
from typing import Any, Optional

from repro.harness.digest import canonical_json, payload_digest

# Bump whenever the semantics of cached payloads change (new metric
# fields, different counting rules...): old entries then miss cleanly.
# 2: stack-plugin refactor — keys derive from registry name + canonical
#    params (not the legacy stack enum); experiment payloads store "stack".
# 3: topology-plugin refactor — the "params" key component is now a
#    TopologySpec (registry name + canonical params) instead of the raw
#    clos dataclass; schema-2 entries keyed the old way miss cleanly.
# 4: flow-level workload engine — scenario payloads gained the
#    "workload" report (scenario schema 2 -> 3) and WorkloadSpec joined
#    the key space ("workload-run" tasks, workload components on sweep
#    and chaos keys); schema-3 entries miss cleanly.
# 5: adaptive liveness layer — chaos payloads gained suppression / MTTR
#    / availability fields and liveness joined stack parameter tuples;
#    schema-4 entries miss cleanly.
# 6: crash-resilience layer — agent_crash/agent_restart ops (scenario
#    schema 3 -> 4), graceful_restart joined stack parameter tuples,
#    and loaded runs carry invariant-monitor fib_* counters;
#    schema-5 entries miss cleanly.
# 7: quiet MR-MTP links — cached run digests hash traces that no longer
#    hold a record per elided keepalive (digest schema 1 -> 2);
#    schema-6 entries miss cleanly.
# 8: one task kind — sweep points, chaos points and workload runs are
#    scenario runs, and a measure checkpoint also freezes the liveness
#    fold (rolling-restart's checkpoint payload grew); schema-7 entries
#    miss cleanly.
# 9: one metrics codec — a scenario payload holds every metrics field
#    (zero monitor counters, a null workload, the new via_port) and
#    every scenario-run key the invariants flag; schema-8 entries miss
#    cleanly.
# 10: one rack-pair verdict — the reachability op judges every ECMP
#    choice (a GR sweep row now reports its stale-window blackhole,
#    failing rows read "loop"/"drop") and a via burst's port search
#    no longer advances mtp-spray's spray counters; schema-9 entries
#    miss cleanly.
# 11: one readiness predicate — MR-MTP on DCell refuses instead of
#    converging vacuously; schema-10 entries miss cleanly.
# 12: one forwarding version — a fluid epoch opens when a liveness
#    monitor depreferences a gray link, and a port's flap never hides a
#    table change; schema-11 entries miss cleanly.
CACHE_SCHEMA = 12

ENV_CACHE_DIR = "REPRO_CACHE_DIR"


def default_cache_root() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def _jsonable(value: Any) -> Any:
    """Reduce task-key components to plain JSON-stable values."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def task_key(task: str, **components: Any) -> str:
    """Content hash of one experiment task.

    ``task`` names the task family ("sweep-point", "scenario-run", ...);
    ``components`` are everything that determines the outcome.  The hash
    is stable across processes and machines: it goes through canonical
    JSON and SHA-256, never ``hash()``.
    """
    body = {"schema": CACHE_SCHEMA, "task": task,
            "components": _jsonable(components)}
    return payload_digest(body)


class ResultCache:
    """Content-addressed store of finished task payloads."""

    def __init__(self, root: Optional[Path] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.hits = 0
        self.misses = 0
        self.dropped = 0  # corrupted entries discarded

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[dict]:
        """The stored payload, or None on miss *or* corruption (the
        corrupted file is removed so the slot recomputes cleanly)."""
        path = self._path(key)
        try:
            raw = path.read_text()
        except (FileNotFoundError, OSError):
            self.misses += 1
            return None
        try:
            entry = json.loads(raw)
            if entry["key"] != key or entry["schema"] != CACHE_SCHEMA:
                raise ValueError("key/schema mismatch")
            payload = entry["payload"]
        except (ValueError, KeyError, TypeError):
            self.dropped += 1
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: dict) -> None:
        """Atomically persist ``payload`` under ``key`` (write to a temp
        file in the same directory, then rename — a crashed writer leaves
        either nothing or a complete entry, never a torn one)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {"schema": CACHE_SCHEMA, "key": key, "payload": payload}
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(canonical_json(entry))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def describe(self) -> str:
        return (f"cache {self.root}: {self.hits} hits, {self.misses} misses"
                + (f", {self.dropped} corrupted entries dropped"
                   if self.dropped else ""))
