"""Structured trace log.

The simulator-side equivalent of the paper's node log files: protocol code
emits (time, node, category, message, data) records; the harness parses
them to compute convergence times, blast radius etc., mirroring the
paper's "automation scripts parsed the logs" methodology (section VI.B).

Tracing is *lazy*: :attr:`TraceLog.live` is maintained to be True exactly
when a record would be kept (recording enabled or a listener attached).
Hot paths check ``live`` before building a record — a dark trace log costs
one attribute read per would-be emit, not an allocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from repro.sim.engine import Simulator


# Not frozen: every keepalive builds one of these, and a frozen
# dataclass's ``__init__`` is five ``object.__setattr__`` calls (0.96 vs
# 0.28 us).  Records are written once by ``emit`` and only read after.
@dataclass(slots=True)
class TraceRecord:
    time: int
    node: str
    category: str
    message: str
    data: dict = field(default_factory=dict)

    def __reduce__(self):  # five values, not a slot-name dict, per record
        return TraceRecord, (self.time, self.node, self.category,
                             self.message, self.data)

    def __str__(self) -> str:  # human-readable log line
        extra = f" {self.data}" if self.data else ""
        return f"[{self.time:>12d}us] {self.node:<8s} {self.category:<18s} {self.message}{extra}"


class TraceLog:
    """Append-only record store with category filtering and live listeners."""

    def __init__(self, sim: Simulator, enabled: bool = True) -> None:
        self.sim = sim
        self._enabled = enabled
        self.records: list[TraceRecord] = []
        self._listeners: list[Callable[[TraceRecord], None]] = []
        # kept in sync by the enabled setter and add/remove_listener so
        # emitters can skip record construction with one attribute read
        self.live: bool = enabled

    @property
    def enabled(self) -> bool:
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = value
        self.live = value or bool(self._listeners)

    def emit(self, node: str, category: str, message: str, **data: Any) -> None:
        if not self.live:
            return
        # the clock's slot, not the ``now`` property: a call per record
        record = TraceRecord(self.sim._now, node, category, message, data)
        if self._enabled:
            self.records.append(record)
        for listener in self._listeners:
            listener(record)

    def add_listener(self, listener: Callable[[TraceRecord], None]) -> None:
        self._listeners.append(listener)
        self.live = True

    def remove_listener(self, listener: Callable[[TraceRecord], None]) -> None:
        self._listeners.remove(listener)
        self.live = self._enabled or bool(self._listeners)

    # ------------------------------------------------------------------
    # queries (the "log parsing scripts")
    # ------------------------------------------------------------------
    def select(
        self,
        category: Optional[str] = None,
        node: Optional[str] = None,
        since: Optional[int] = None,
        until: Optional[int] = None,
    ) -> Iterator[TraceRecord]:
        for rec in self.records:
            if category is not None and rec.category != category:
                continue
            if node is not None and rec.node != node:
                continue
            if since is not None and rec.time < since:
                continue
            if until is not None and rec.time > until:
                continue
            yield rec

    def last_time(self, category: str, since: Optional[int] = None) -> Optional[int]:
        """Time of the last record in ``category`` (optionally after ``since``)."""
        result = None
        for rec in self.select(category=category, since=since):
            result = rec.time
        return result

    def count(self, category: str, since: Optional[int] = None) -> int:
        return sum(1 for _ in self.select(category=category, since=since))

    def clear(self) -> None:
        self.records.clear()
