"""Deterministic discrete-event engine on a binary heap.

Events are ordered by (time, priority, born, sequence-number): ``born``
is the instant an event was scheduled and the sequence number the order
of scheduling, so among events due together the one scheduled first
fires first and runs are bit-for-bit reproducible for a fixed seed.
``seq`` rises with ``born``, so for an ordinary event the pair says what
``seq`` alone would; ``born`` is its own field because an exchange held
as arithmetic (DESIGN "Steady-state frame path") puts an event back into
the queue long after the instant it stands for, and
``schedule_at(..., born=...)`` gives it the rank that instant had.
Cancellation is O(1) (tombstoning): a cancelled event stays queued
and is dropped when it reaches the head, and a pickled queue carries
no tombstones.

The queue is one binary heap of (time, priority, born, seq, event)
tuples, compared in C by ``heapq``.  Dispatch goes through a
same-timestamp batch: all events due at time *t* are drained into one
small (priority, born, seq) heap and fired in order; callbacks
scheduling at the current time join the live batch, preserving causal
FIFO ordering.  That order is the determinism contract behind
byte-identical trace digests: ``tests/sim`` holds it, and
``tests/harness/test_backend_golden.py`` pins golden metrics and equal
digests inline, fanned out and supervised.

The engine also owns the world's one forwarding version
(:attr:`Simulator.forwarding_version`): a monotone count that
:meth:`Simulator.note_forwarding_change` bumps from every write the
data plane reads, so whoever asks "has forwarding changed?" compares
one integer, and it pickles, forks and restores with the queue.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

# "run to exhaustion" sentinel passed to the scheduler; larger than any
# simulated time (2^63 us is ~292k years).
_NO_LIMIT = 1 << 63


class SimulationError(RuntimeError):
    """Raised on engine misuse (scheduling in the past, running twice...)."""


class Event:
    """A scheduled callback; doubles as its own cancellation handle.

    ``cancel()`` only flips a flag — O(1) whether the event rests in
    the queue or in the active dispatch batch; the tombstone is
    discarded when it reaches the head of either.
    """

    __slots__ = ("time", "priority", "born", "seq", "callback", "args",
                 "cancelled")

    def __init__(
        self,
        time: int,
        priority: int,
        born: int,
        seq: int,
        callback: Callable[..., None],
        args: tuple = (),
    ) -> None:
        self.time = time
        self.priority = priority
        self.born = born
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.born, self.seq) < (
            other.time, other.priority, other.born, other.seq)

    @property
    def active(self) -> bool:
        return not self.cancelled

    def cancel(self) -> None:
        """Cancel the event.  Safe to call more than once or after firing."""
        self.cancelled = True

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "active"
        return (f"<Event t={self.time} pri={self.priority} "
                f"born={self.born} seq={self.seq} {state}>")


# The handle returned by ``Simulator.schedule`` *is* the event; the old
# wrapper class added an allocation per scheduled event for no benefit.
EventHandle = Event


def _live_heap(heap: list) -> list:
    """The live entries of a (time, priority, born, seq, event) heap."""
    live = [entry for entry in heap if not entry[4].cancelled]
    heapify(live)
    return live


class Simulator:
    """The event loop.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule_after(10, fired.append, 1)
    >>> sim.run()
    >>> (sim.now, fired)
    (10, [1])
    """

    __slots__ = ("_now", "_seq", "_running", "_processed", "_heap",
                 "_discarded", "_batch", "_batch_time", "_batch_drops",
                 "_peak_depth", "_stamp", "_cursor", "events_settled",
                 "forwarding_version")

    def __init__(self) -> None:
        # the queue: a (time, priority, born, seq, event) heap
        self._heap: list[tuple[int, int, int, int, Event]] = []
        self._discarded: int = 0  # tombstones dropped without firing
        self._now: int = 0
        self._seq: int = 0
        self._running: bool = False
        self._processed: int = 0
        # events held as arithmetic accounted for instead of dispatched:
        # with events_processed, what a world with nothing quiet runs
        self.events_settled: int = 0
        # Same-timestamp dispatch batch: a (priority, born, seq, event)
        # heap holding every event due at _batch_time.  Non-empty between
        # run() calls only when a max_events budget expired mid-tick.
        self._batch: list[tuple[int, int, int, Event]] = []
        self._batch_time: int = -1
        self._batch_drops: int = 0
        self._peak_depth: int = 0
        # ``born`` of an event scheduled now: the current instant while it
        # is being dispatched, the next one between runs — by then every
        # event due now has fired, so whatever is scheduled next ranks
        # behind all of them and ahead of anything the next instant adds.
        self._stamp: int = 0
        # the (priority, born, seq, event) entry being dispatched (between
        # runs, behind all born before _stamp): how far the run has got
        self._cursor: tuple = (0, 0, -1)
        # bumped by note_forwarding_change alone, never reset
        self.forwarding_version: int = 0

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in integer microseconds."""
        return self._now

    def note_forwarding_change(self) -> None:
        """Something the data plane reads changed: a table entry, a
        port's admin state, a neighbor's usability or gray verdict."""
        self.forwarding_version += 1

    @property
    def events_processed(self) -> int:
        return self._processed

    @property
    def events_scheduled(self) -> int:
        """Events ever put into the queue, fired, pending or cancelled."""
        return self._seq

    def has_passed(self, time: int, born: int, seq: int = _NO_LIMIT) -> bool:
        """Whether a priority-0 event due at ``time``, scheduled at
        ``born`` as number ``seq`` (default: last of those born then),
        ranks before the event being dispatched (between runs: before
        anything that can still be scheduled) — for quiet exchanges."""
        return time < self._now or (
            time == self._now and (0, born, seq) < self._cursor)

    @property
    def pending_events(self) -> int:
        batch_live = sum(1 for entry in self._batch if not entry[3].cancelled)
        heap_live = sum(1 for entry in self._heap if not entry[4].cancelled)
        return heap_live + batch_live

    @property
    def queue_depth(self) -> int:
        """Resident events (including not-yet-discarded tombstones)."""
        return (self._seq - self._processed - self._batch_drops
                - self._discarded)

    @property
    def peak_queue_depth(self) -> int:
        """High-water mark of :attr:`queue_depth`, sampled at every
        dispatch-tick boundary — the memory-pressure figure the perf
        suite records per scenario.  Tick-granularity sampling keeps the
        accounting off the per-schedule fast path."""
        return self._peak_depth

    def _sample_depth(self) -> None:
        depth = (self._seq - self._processed - self._batch_drops
                 - self._discarded)
        if depth > self._peak_depth:
            self._peak_depth = depth

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule_at(
        self,
        time: int,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
        born: Optional[int] = None,
        seq: Optional[int] = None,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute time ``time``.

        ``born`` ranks the event among those due together as if it had
        been scheduled at that (earlier) instant — for putting back an
        event that was accounted for instead of queued.  ``seq`` re-uses
        the number an earlier event of the caller's drew: a timer is one
        recurring entry in the queue, and keeps the place its first
        start gave it among timers armed in the same instant."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} (now={self._now}): in the past"
            )
        if type(time) is not int:
            time = int(time)
        if born is None:
            born = self._stamp
        if seq is None:
            seq = self._seq
        self._seq += 1  # also the count of events ever scheduled
        event = Event(time, priority, born, seq, callback, args)
        if time == self._batch_time:
            # joins the tick currently being dispatched, ordered by
            # (priority, born, seq) exactly as the single heap ordered it
            heappush(self._batch, (priority, born, seq, event))
        else:
            heappush(self._heap, (time, priority, born, seq, event))
        return event

    def schedule_after(
        self,
        delay: int,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
        seq: Optional[int] = None,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` ``delay`` ticks from now (``seq``
        as for :meth:`schedule_at`)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        # duplicates schedule_at's body: this is the hottest scheduling
        # entry point (every protocol timer) and the extra call frame
        # showed up as ~15% of engine time in profiles
        if type(delay) is not int:
            delay = int(delay)
        time = self._now + delay
        born = self._stamp
        if seq is None:
            seq = self._seq
        self._seq += 1
        event = Event(time, priority, born, seq, callback, args)
        if time == self._batch_time:
            heappush(self._batch, (priority, born, seq, event))
        else:
            heappush(self._heap, (time, priority, born, seq, event))
        return event

    def requeue_firing(self, event: Event, time: int, born: int) -> None:
        """Put ``event``, the one being dispatched, back into the queue
        at ``(time, priority, born, seq)``: a kicked :class:`Timer`
        reaching a deadline that has moved on.  Bookkeeping, not an
        event — the firing does not count in :attr:`events_processed`
        (nor against a ``max_events`` budget), and nothing is scheduled."""
        self._processed -= 1
        event.time = time
        event.born = born
        if time == self._batch_time:
            heappush(self._batch, (event.priority, born, event.seq, event))
        else:
            heappush(self._heap, (time, event.priority, born, event.seq,
                                  event))

    def call_soon(self, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule at the current time (runs after already-queued events
        at this tick, preserving causality)."""
        return self.schedule_at(self._now, callback, *args)

    def __getstate__(self):
        """Pickled without tombstones: a converged fabric's queue is
        mostly cancelled re-arms, which a restored copy would only
        discard.  They count as discarded, so ``queue_depth`` stays
        exact."""
        state = {name: getattr(self, name) for name in self.__slots__}
        live = state["_heap"] = _live_heap(self._heap)
        state["_discarded"] += len(self._heap) - len(live)
        return None, state

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def _collect(self, limit: int) -> Optional[int]:
        """Drain every live event due at the earliest pending tick into
        the (empty) dispatch batch and return that tick, or None when the
        queue is drained / the next tick is beyond ``limit`` (nothing
        live is consumed then; only tombstones may have been dropped)."""
        heap = self._heap
        while heap:
            head = heap[0]
            if head[4].cancelled:
                heappop(heap)
                self._discarded += 1
                continue
            tick = head[0]
            if tick > limit:
                return None
            batch = self._batch
            while heap and heap[0][0] == tick:
                entry = heappop(heap)
                if entry[4].cancelled:
                    self._discarded += 1
                else:
                    heappush(batch, entry[1:])
            return tick
        return None

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or
        ``max_events`` more events have fired.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the queue drained earlier, so wall-clock style measurements
        (e.g. capture windows) are well defined.
        """
        if self._running:
            raise SimulationError("run() re-entered")
        self._running = True
        # the budget counts events processed: a timer's re-queue
        # (requeue_firing) takes back the count its firing added
        stop = None if max_events is None else self._processed + max_events
        limit = _NO_LIMIT if until is None else until
        collect = self._collect
        batch = self._batch
        self._sample_depth()
        try:
            if stop is None:
                # unbudgeted fast path: the per-event budget checks cost
                # ~10% of the dispatch loop on fabric-scale runs
                while True:
                    if batch:
                        tick = self._batch_time
                        if tick > limit:
                            break  # leftover batch beyond a shorter horizon
                    else:
                        depth = (self._seq - self._processed
                                 - self._batch_drops - self._discarded)
                        if depth > self._peak_depth:
                            self._peak_depth = depth
                        tick = collect(limit)
                        if tick is None:
                            break
                        self._batch_time = tick
                    self._now = self._stamp = tick
                    while batch:
                        event = (entry := heappop(batch))[3]
                        if event.cancelled:
                            self._batch_drops += 1
                            continue
                        self._processed += 1
                        self._cursor = entry
                        event.callback(*event.args)
                    self._batch_time = -1
            else:
                while True:
                    if batch:
                        tick = self._batch_time
                        if tick > limit:
                            break
                    else:
                        if self._processed >= stop:
                            # never collect a tick we cannot start: a
                            # leftover batch must imply now == batch time,
                            # so later schedules can never land behind it
                            break
                        depth = (self._seq - self._processed
                                 - self._batch_drops - self._discarded)
                        if depth > self._peak_depth:
                            self._peak_depth = depth
                        tick = collect(limit)
                        if tick is None:
                            break
                        self._batch_time = tick
                    self._now = self._stamp = tick
                    out_of_budget = False
                    while batch:
                        if self._processed >= stop:
                            out_of_budget = True
                            break
                        event = (entry := heappop(batch))[3]
                        if event.cancelled:
                            self._batch_drops += 1
                            continue
                        self._processed += 1
                        self._cursor = entry
                        event.callback(*event.args)
                    if out_of_budget:
                        break
                    self._batch_time = -1
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False
            # an instant cut short by an event budget is still the
            # current one
            self._stamp = stamp = self._now if self._batch else self._now + 1
            self._cursor = (0, stamp, -1)

    def run_for(self, duration: int, max_events: Optional[int] = None) -> None:
        """Run for ``duration`` ticks from the current time."""
        self.run(until=self._now + int(duration), max_events=max_events)
