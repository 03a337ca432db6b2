"""Converge once, run many: the converged world a task list shares.

:class:`WorldSnapshots` is told every task's :func:`world_key` up front.
For a key that recurs it pickles the first cold-built ``(world, topo,
deployment)`` and hands each later task of that key ``pickle.loads`` of
it; one blob, the most recent key, is kept (task lists are stack-major).
Cold build is the miss path and the fallback: if ``dumps`` or ``loads``
raises, the key is dropped, one note names the stack and its tasks run
cold — a bad snapshot never changes a result.
"""

from __future__ import annotations

import pickle
from collections import Counter
from typing import Any, Callable, Iterable, Optional

from repro.harness.cache import task_key
from repro.sim.units import SECOND
from repro.topology import resolve_topology_spec


def world_key(params, spec, seed: int, trace_enabled: bool = True,
              max_converge_us: int = 60 * SECOND) -> str:
    """Content hash of ``build_and_converge``'s inputs (the world part
    of every result-cache key), defaulted as it defaults them."""
    return task_key("converged-world",
                    params=resolve_topology_spec(params), stack=spec.name,
                    stack_params=spec.params, timers=spec.timers, seed=seed,
                    trace_enabled=trace_enabled,
                    max_converge_us=max_converge_us)


class WorldSnapshots:
    """At most one pickled world, for the ``keys`` that occur twice."""

    def __init__(self, keys: Iterable[str]) -> None:
        self._shared = {k for k, n in Counter(keys).items() if n > 1}
        self._kept: Optional[tuple[str, bytes]] = None
        self.notes: list[str] = []

    def converged(self, key: str, stack: str, cold: Callable[[], Any]):
        """A converged world for ``key``: ``cold()`` itself, or a private
        copy of the one an earlier task of this key built."""
        if key not in self._shared:
            return cold()
        if self._kept is not None and self._kept[0] == key:
            try:
                return pickle.loads(self._kept[1])
            except Exception as exc:  # noqa: BLE001 — any failure means cold
                self._give_up(key, stack, "restore", exc)
                return cold()
        built = cold()
        try:
            self._kept = key, pickle.dumps(built, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # noqa: BLE001 — any failure means cold
            self._give_up(key, stack, "snapshot", exc)
        return built

    def _give_up(self, key, stack, what, exc) -> None:
        self._kept = None
        self._shared.discard(key)
        self.notes.append(
            f"world {what} failed for stack {stack} "
            f"({type(exc).__name__}: {exc}); its runs converge cold")
