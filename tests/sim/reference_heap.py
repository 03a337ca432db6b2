"""The reference scheduler the timer wheel is checked against.

A plain binary heap over (time, priority, born, seq, event) tuples: the
order ``repro.sim.engine`` promises, with none of the wheel's levels,
cascades or fallback heap.  It is installed in-process by swapping a
fresh :class:`Simulator`'s queue (:func:`heap_simulator`); nothing in
``src/`` can select it.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Optional

from repro.sim.engine import Event, Simulator, _live_heap


class HeapBackend:
    """The binary-heap scheduler (tuple entries, C comparisons)."""

    __slots__ = ("_heap", "discarded")

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, int, int, Event]] = []
        self.discarded = 0  # tombstones dropped without firing

    def push(self, event: Event) -> None:
        heappush(self._heap, (event.time, event.priority, event.born,
                              event.seq, event))

    def collect(self, batch: list, limit: int) -> Optional[int]:
        """Drain every live event due at the earliest pending tick into
        ``batch`` (a (priority, born, seq, event) heap) and return that tick,
        or None when the queue is drained / the next tick is beyond
        ``limit`` (nothing is consumed in that case)."""
        heap = self._heap
        while heap:
            head = heap[0]
            if head[4].cancelled:
                heappop(heap)
                self.discarded += 1
                continue
            tick = head[0]
            if tick > limit:
                return None
            while heap and heap[0][0] == tick:
                entry = heappop(heap)
                if entry[4].cancelled:
                    self.discarded += 1
                else:
                    heappush(batch, entry[1:])
            return tick
        return None

    def live_count(self) -> int:
        return sum(1 for entry in self._heap if not entry[4].cancelled)

    def __getstate__(self):
        """Pickled without tombstones, which count as discarded."""
        live = _live_heap(self._heap)
        return None, {"_heap": live, "discarded": self.discarded
                      + len(self._heap) - len(live)}


def heap_simulator() -> Simulator:
    """A fresh simulator that schedules on the reference heap."""
    sim = Simulator()
    sim._queue = HeapBackend()
    sim._qpush = sim._queue.push
    return sim
