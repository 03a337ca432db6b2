"""Restartable timers built on the event engine.

Protocol code (hold timers, dead timers, hello intervals, MRAI) uses these
instead of raw events: a :class:`Timer` can be started, restarted ("kicked")
and stopped; a :class:`PeriodicTimer` refires on a fixed interval with
optional per-firing jitter (BFD-style 75-100% scaling).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import EventHandle, Simulator


class Timer:
    """A one-shot, restartable timer.

    ``restart()`` is the idiom for dead/hold timers: every received
    keepalive kicks the timer; if it ever fires, the neighbor is declared
    down.

    A kick moves a deadline, not an event: the timer keeps one event in
    the queue and only records the new ``(deadline, born)``.  When that
    event comes due before the deadline it puts itself back at
    ``(deadline, born of the last kick, rank)`` — the key an eager
    cancel-and-reschedule would have given it, so the firing order is
    exactly that of re-arming on every kick
    (``Simulator.requeue_firing``; not counted as an event).  A kick to
    an earlier deadline (a shorter interval, an earlier
    :meth:`start_at`) does cancel and reschedule.  Read the deadline
    through :attr:`deadline` / :attr:`expires_at`, never the queued
    event: it may lag behind.

    Every arming carries the sequence number the first one drew
    (``rank``): timers armed in the same instant for the same instant
    fire in the order they were first started, however often each has
    been kicked since — and :meth:`start_at` puts a timer that was
    accounted for instead of queued back in exactly its place.
    """

    __slots__ = ("sim", "interval", "callback", "name", "rank", "_handle",
                 "_deadline", "_born")

    def __init__(
        self,
        sim: Simulator,
        interval: int,
        callback: Callable[[], None],
        name: str = "timer",
    ) -> None:
        if interval <= 0:
            raise ValueError(f"timer interval must be positive, got {interval}")
        self.sim = sim
        self.interval = int(interval)
        self.callback = callback
        self.name = name
        self.rank: Optional[int] = None
        self._handle: Optional[EventHandle] = None
        self._deadline = self._born = 0

    @property
    def running(self) -> bool:
        return self._handle is not None and not self._handle.cancelled

    @property
    def deadline(self) -> Optional[tuple[int, int]]:
        """``(instant, born)`` the timer fires at — where an eager
        re-arm would have queued it — or None when stopped."""
        return (self._deadline, self._born) if self.running else None

    @property
    def expires_at(self) -> Optional[int]:
        return self._deadline if self.running else None

    def start(self, interval: Optional[int] = None) -> None:
        """(Re)start the timer; fires ``interval`` ticks from now."""
        if interval is not None:
            if interval <= 0:
                raise ValueError("interval must be positive")
            self.interval = int(interval)
        sim = self.sim
        deadline, born = sim._now + self.interval, sim._stamp
        handle = self._handle
        if handle is not None and not handle.cancelled and (
                handle.time < deadline
                or (handle.time == deadline and handle.born <= born)):
            # every keepalive lands here: _arm()'s lazy case, inline
            self._deadline, self._born = deadline, born
            return
        self._arm(deadline, born)

    # restart is an alias that reads better at call sites that "kick" a
    # dead timer on every received message.
    restart = start

    def start_at(self, deadline: int, born: int) -> None:
        """Arm the timer as ``start()`` at instant ``born`` would have left
        it, ``deadline`` being ``born`` + interval: same firing instant,
        same place among the events due then (``Simulator.schedule_at``)."""
        self._arm(deadline, born)

    def _arm(self, deadline: int, born: int) -> None:
        handle = self._handle
        if handle is not None and not handle.cancelled:
            if handle.time < deadline or (handle.time == deadline
                                          and handle.born <= born):
                # the queued event re-queues itself when it comes due
                self._deadline, self._born = deadline, born
                return
            handle.cancelled = True
        self._handle = handle = self.sim.schedule_at(
            deadline, self._fire, born=born, seq=self.rank)
        self.rank = handle.seq
        self._deadline, self._born = deadline, born

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        handle = self._handle
        if handle.time != self._deadline or handle.born != self._born:
            self.sim.requeue_firing(handle, self._deadline, self._born)
            return
        self._handle = None
        self.callback()


class PeriodicTimer:
    """Fires ``callback`` every ``interval`` ticks until stopped.

    ``jitter`` (0..1) scales each period uniformly in
    ``[(1-jitter)*interval, interval]`` using the supplied RNG — the BFD
    transmit-interval rule (RFC 5880 section 6.8.7 mandates 75-100%).
    Deterministic when the RNG is seeded.

    Every firing carries the sequence number ``start()`` drew
    (``rank``, as for :class:`Timer`): timers that fire together fire in
    the order they were started — which drawing a fresh number at each
    firing also came to — and one resumed by :meth:`start_at` is back in
    exactly the place it left.
    """

    __slots__ = ("sim", "interval", "callback", "name", "jitter", "rng",
                 "rank", "_handle")

    def __init__(
        self,
        sim: Simulator,
        interval: int,
        callback: Callable[[], None],
        name: str = "periodic",
        jitter: float = 0.0,
        rng=None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"timer interval must be positive, got {interval}")
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        if jitter > 0.0 and rng is None:
            raise ValueError("jitter requires an rng")
        self.sim = sim
        self.interval = int(interval)
        self.callback = callback
        self.name = name
        self.jitter = jitter
        self.rng = rng
        self.rank: Optional[int] = None
        self._handle: Optional[EventHandle] = None

    @property
    def running(self) -> bool:
        return self._handle is not None and self._handle.active

    @property
    def expires_at(self) -> Optional[int]:
        """When it next fires, or None when stopped."""
        return self._handle.time if self.running else None

    def _next_period(self, rng=None) -> int:  # drawn from rng if given
        if self.jitter == 0.0:
            return self.interval
        lo = (1.0 - self.jitter) * self.interval
        # sim.rng.uniform inlined: the hot draw of every jittered timer
        period = int(lo + (self.interval - lo) * (
            self.rng if rng is None else rng).random())
        return max(1, period)

    def start(self, immediate: bool = False) -> None:
        self.stop()
        delay = 0 if immediate else self._next_period()
        self._handle = self.sim.schedule_after(delay, self._fire)
        self.rank = self._handle.seq

    def start_at(self, first: int, born: int) -> None:
        """Resume a timer whose last firing was at ``born`` and whose
        next is due at ``first``, as if it had never been stopped (see
        ``Simulator.schedule_at``)."""
        self.stop()
        self._handle = self.sim.schedule_at(first, self._fire, born=born,
                                            seq=self.rank)
        self.rank = self._handle.seq

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def set_interval(self, interval: int) -> None:
        """Change the period; takes effect from the next scheduling."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = int(interval)

    def _fire(self) -> None:
        # Reschedule before the callback so the callback may stop() us.
        period = self.interval if self.jitter == 0.0 else self._next_period()
        self._handle = self.sim.schedule_after(period, self._fire,
                                               seq=self.rank)
        self.callback()
