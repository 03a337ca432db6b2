"""Deterministic discrete-event engine on a hierarchical timer wheel.

Events are ordered by (time, priority, born, sequence-number): ``born``
is the instant an event was scheduled and the sequence number the order
of scheduling, so among events due together the one scheduled first
fires first and runs are bit-for-bit reproducible for a fixed seed.
``seq`` rises with ``born``, so for an ordinary event the pair says what
``seq`` alone would; ``born`` is its own field because an exchange held
as arithmetic (DESIGN "Steady-state frame path") puts an event back into
the queue long after the instant it stands for, and
``schedule_at(..., born=...)`` gives it the rank that instant had.
Cancellation is O(1) (tombstoning), and a pickled queue carries no
tombstones.

The scheduler is a hierarchical timer wheel: 4 levels of 256 slots
covering 2^32 ticks of lookahead (level *L* slots are 256^L ticks
wide).  Insert is O(1) — compute the level whose aligned window
contains the event's time, append to the slot list, set a bit in the
level's occupancy mask.  Advancing finds the next populated slot with
bit tricks and cascades coarser slots down one level at a time;
tombstoned (cancelled) events are discarded wholesale the first time
their slot is visited, so hello/keepalive/dead-timer churn — schedule,
cancel on every received keepalive, reschedule — never pays a
comparison.  Events behind a level's current window (rare: only after
an ``until``-bounded run stopped mid-cascade) and events beyond the
2^32-tick horizon go to a small fallback heap that is merged by
(time, priority, born, seq) at dispatch.

Dispatch goes through a same-timestamp batch: all events due at time
*t* are drained into one small (priority, born, seq) heap and fired in
order; callbacks scheduling at the current time join the live batch,
preserving causal FIFO ordering.  The determinism contract — the firing
order of a plain binary heap over (time, priority, born, seq), hence
byte-identical trace digests — is enforced against such a heap, kept
only as a test reference in ``tests/sim/reference_heap.py``, by the
unit and differential property tests in ``tests/sim`` and the golden
digests of ``tests/harness/test_backend_golden.py``.
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

    ``cancel()`` only flips a flag — O(1) regardless of where the event
    currently rests (wheel slot, heap, or the active dispatch batch);
    the tombstone is discarded when its container is next visited.
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


_WHEEL_BITS = 8
_WHEEL_SLOTS = 1 << _WHEEL_BITS  # 256
_SLOT_MASK = _WHEEL_SLOTS - 1


class _WheelBackend:
    """Hierarchical timer wheel: O(1) insert, batched tombstone discard.

    Level *L* (0..3) divides time into aligned slots of 256^L ticks;
    each level maps one aligned 256-slot window, identified by
    ``_base[L]`` (the window's block number, ``time >> (8*(L+1))``).
    An event goes into the finest level whose current window contains
    its time.  When level 0 drains, the next populated level-1 slot is
    *cascaded* — re-distributed into level 0 — and so on upward.

    Two invariants keep the (time, priority, born, seq) contract exact:

    - a cascade never reorders: every event due at one tick is gathered
      into the caller's (priority, born, seq) batch heap before any of
      them fires;
    - an insert that lands *behind* a level's current window (possible
      only after an ``until``-bounded run advanced the wheel past times
      that were still legal to schedule) falls back to ``_far``, a plain
      heap merged with the wheel at every dispatch, so late-but-legal
      events still fire in exact order.  ``_far`` also absorbs events
      beyond the level-3 horizon.
    """

    __slots__ = ("_levels", "_masks", "_base", "_far", "_count", "discarded")

    def __init__(self) -> None:
        # Slot lists are allocated on first use and released when
        # consumed: a fresh Simulator costs four 256-entry arrays of
        # None, not 1024 list objects.
        self._levels: list[list[Optional[list[Event]]]] = [
            [None] * _WHEEL_SLOTS for _ in range(4)]
        self._masks = [0, 0, 0, 0]  # per-level occupancy bitmask
        self._base = [0, 0, 0, 0]   # per-level current window block
        self._far: list[tuple[int, int, int, int, Event]] = []
        self._count = 0             # wheel-resident events, incl. tombstones
        self.discarded = 0          # tombstones dropped without firing

    def push(self, event: Event) -> None:
        time = event.time
        base = self._base
        if self._count == 0:
            # Empty wheel: re-anchor every window on the new event so it
            # always lands in level 0 (keeps the common idle->schedule
            # pattern on the fast path).
            base[0] = time >> 8
            base[1] = time >> 16
            base[2] = time >> 24
            base[3] = time >> 32
        block = time >> 8
        if block == base[0]:
            # level 0 — the overwhelmingly common case (same-window
            # schedules): early-out without touching the elif chain
            index = time & _SLOT_MASK
            slots = self._levels[0]
            slot = slots[index]
            if slot is None:
                slots[index] = [event]
                self._masks[0] |= 1 << index
            else:
                slot.append(event)
            self._count += 1
            return
        if (time >> 16) == base[1] and block > base[0]:
            level, index = 1, block & _SLOT_MASK
        elif (time >> 24) == base[2] and (time >> 16) > base[1]:
            level, index = 2, (time >> 16) & _SLOT_MASK
        elif (time >> 32) == base[3] and (time >> 24) > base[2]:
            level, index = 3, (time >> 24) & _SLOT_MASK
        else:
            # behind a current window (until-cut straggler) or beyond
            # the horizon: the fallback heap keeps exact ordering
            heappush(self._far, (time, event.priority, event.born,
                                 event.seq, event))
            return
        slots = self._levels[level]
        slot = slots[index]
        if slot is None:
            slots[index] = [event]
            self._masks[level] |= 1 << index
        else:
            slot.append(event)
        self._count += 1

    def _cascade(self, level: int) -> None:
        """Re-distribute the next populated slot of ``level`` into
        ``level - 1`` and advance the finer window onto it."""
        masks = self._masks
        mask = masks[level]
        index = (mask & -mask).bit_length() - 1
        masks[level] = mask & (mask - 1)
        slots = self._levels[level]
        slot = slots[index]
        slots[index] = None
        below = level - 1
        self._base[below] = (self._base[level] << _WHEEL_BITS) | index
        shift = _WHEEL_BITS * below
        dest = self._levels[below]
        dest_mask = masks[below]
        dropped = 0
        for event in slot:
            if event.cancelled:
                dropped += 1
                continue
            i = (event.time >> shift) & _SLOT_MASK
            bucket = dest[i]
            if bucket is None:
                dest[i] = [event]
                dest_mask |= 1 << i
            else:
                bucket.append(event)
        masks[below] = dest_mask
        if dropped:
            self.discarded += dropped
            self._count -= dropped

    def collect(self, batch: list, limit: int) -> Optional[int]:
        """Drain every live event due at the earliest pending tick into
        ``batch`` and return that tick, or None when drained / the next
        tick is beyond ``limit`` (nothing live is consumed then; only
        cascades and tombstone discards may have happened).

        Callers always pass an empty ``batch`` (leftover batches are
        dispatched before collecting again), which the single-event fast
        path below relies on."""
        mask = self._masks[0]
        if mask and not self._far:
            # fast path: one live event alone in the earliest level-0
            # slot — the overwhelmingly common shape on fabric runs
            index = (mask & -mask).bit_length() - 1
            tick = (self._base[0] << _WHEEL_BITS) | index
            if tick <= limit:
                slots = self._levels[0]
                slot = slots[index]
                if len(slot) == 1:
                    event = slot[0]
                    if not event.cancelled:
                        slots[index] = None
                        self._masks[0] = mask & (mask - 1)
                        self._count -= 1
                        batch.append((event.priority, event.born, event.seq,
                                      event))
                        return tick
            else:
                return None
        masks = self._masks
        far = self._far
        while True:
            # locate the earliest populated level-0 slot, cascading
            # coarser levels down as their windows open
            while True:
                mask = masks[0]
                if mask:
                    index = (mask & -mask).bit_length() - 1
                    wheel_time = (self._base[0] << _WHEEL_BITS) | index
                    break
                if masks[1]:
                    self._cascade(1)
                elif masks[2]:
                    self._cascade(2)
                elif masks[3]:
                    self._cascade(3)
                else:
                    wheel_time = None
                    break
            if far:
                # drop cancelled stragglers, then let the earlier of
                # (far head, wheel slot) win; ties merge below
                while far and far[0][4].cancelled:
                    heappop(far)
                    self.discarded += 1
                if far and (wheel_time is None or far[0][0] < wheel_time):
                    tick = far[0][0]
                    if tick > limit:
                        return None
                    while far and far[0][0] == tick:
                        entry = heappop(far)
                        if entry[4].cancelled:
                            self.discarded += 1
                        else:
                            heappush(batch, entry[1:])
                    if batch:
                        return tick
                    continue
            if wheel_time is None:
                return None
            if wheel_time > limit:
                return None
            level0 = self._levels[0]
            slot = level0[index]
            level0[index] = None
            masks[0] = mask & (mask - 1)
            self._count -= len(slot)
            dropped = 0
            for event in slot:
                if event.cancelled:
                    dropped += 1
                else:
                    heappush(batch, (event.priority, event.born, event.seq,
                                     event))
            if dropped:
                self.discarded += dropped
            while far and far[0][0] == wheel_time:
                entry = heappop(far)
                if entry[4].cancelled:
                    self.discarded += 1
                else:
                    heappush(batch, entry[1:])
            if batch:
                return wheel_time
            # the slot held only tombstones — keep looking

    def live_count(self) -> int:
        count = sum(1 for entry in self._far if not entry[4].cancelled)
        for slots in self._levels:
            for slot in slots:
                if slot:
                    for event in slot:
                        if not event.cancelled:
                            count += 1
        return count

    def __getstate__(self):
        """Pickled without tombstones: a converged fabric's wheel is
        mostly cancelled re-arms, which a restored copy would only
        discard.  They count as discarded, so ``queue_depth`` stays
        exact; the order of what is left is (time, priority, born, seq)
        wherever it rests."""
        levels, masks, dropped = [], [], 0
        for slots in self._levels:
            kept, mask = [None] * _WHEEL_SLOTS, 0
            for index, slot in enumerate(slots):
                if slot:
                    live = [event for event in slot if not event.cancelled]
                    dropped += len(slot) - len(live)
                    if live:
                        kept[index] = live
                        mask |= 1 << index
            levels.append(kept)
            masks.append(mask)
        far = _live_heap(self._far)
        return None, {
            "_levels": levels, "_masks": masks, "_base": list(self._base),
            "_far": far, "_count": self._count - dropped,
            "discarded": self.discarded + dropped + len(self._far) - len(far)}


class Simulator:
    """The event loop.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule_after(10, fired.append, 1)
    >>> sim.run()
    >>> (sim.now, fired)
    (10, [1])
    """

    __slots__ = ("_now", "_seq", "_running", "_processed", "_queue",
                 "_qpush", "_batch", "_batch_time", "_batch_drops",
                 "_peak_depth", "_stamp", "_cursor", "events_settled")

    def __init__(self) -> None:
        self._queue = _WheelBackend()
        self._qpush = self._queue.push  # pre-bound: hot in schedule_*
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

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in integer microseconds."""
        return self._now

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
        return self._queue.live_count() + batch_live

    @property
    def queue_depth(self) -> int:
        """Resident events (including not-yet-discarded tombstones)."""
        return (self._seq - self._processed - self._batch_drops
                - self._queue.discarded)

    @property
    def peak_queue_depth(self) -> int:
        """High-water mark of :attr:`queue_depth`, sampled at every
        dispatch-tick boundary — the memory-pressure figure the perf
        suite records per scenario.  Tick-granularity sampling keeps the
        accounting off the per-schedule fast path."""
        return self._peak_depth

    def _sample_depth(self) -> None:
        depth = (self._seq - self._processed - self._batch_drops
                 - self._queue.discarded)
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
            self._qpush(event)
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
            self._qpush(event)
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
            self._qpush(event)

    def call_soon(self, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule at the current time (runs after already-queued events
        at this tick, preserving causality)."""
        return self.schedule_at(self._now, callback, *args)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
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
        queue = self._queue
        collect = queue.collect
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
                                 - self._batch_drops - queue.discarded)
                        if depth > self._peak_depth:
                            self._peak_depth = depth
                        tick = collect(batch, limit)
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
                                 - self._batch_drops - queue.discarded)
                        if depth > self._peak_depth:
                            self._peak_depth = depth
                        tick = collect(batch, limit)
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
