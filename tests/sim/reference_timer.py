"""The eager timer the lazy one is checked against.

:class:`Timer` below is ``repro.sim.timers.Timer`` as it was before a
kick became a moved deadline, kept verbatim: every ``start()`` /
``restart()`` tombstones the queued event and schedules a new one at
``(now + interval, born = now, seq = rank)``.  The firing order it
gives is the contract the lazy timer must keep
(``tests/sim/test_lazy_timer.py``); nothing in ``src/`` uses it.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import EventHandle, Simulator


class Timer:
    """A one-shot, restartable timer.

    ``restart()`` is the idiom for dead/hold timers: every received
    keepalive kicks the timer; if it ever fires, the neighbor is declared
    down.

    Every arming carries the sequence number the first one drew
    (``rank``): timers armed in the same instant for the same instant
    fire in the order they were first started, however often each has
    been kicked since — and :meth:`start_at` puts a timer that was
    accounted for instead of queued back in exactly its place.
    """

    __slots__ = ("sim", "interval", "callback", "name", "rank", "_handle")

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

    @property
    def running(self) -> bool:
        return self._handle is not None and self._handle.active

    @property
    def expires_at(self) -> Optional[int]:
        return self._handle.time if self.running else None

    def start(self, interval: Optional[int] = None) -> None:
        """(Re)start the timer; fires ``interval`` ticks from now."""
        if interval is not None:
            if interval <= 0:
                raise ValueError("interval must be positive")
            self.interval = int(interval)
        handle = self._handle
        if handle is not None:  # stop(), inline: every keepalive lands here
            handle.cancelled = True
        self._handle = handle = self.sim.schedule_after(
            self.interval, self._fire, seq=self.rank)
        self.rank = handle.seq

    # restart is an alias that reads better at call sites that "kick" a
    # dead timer on every received message.
    restart = start

    def start_at(self, deadline: int, born: int) -> None:
        """Arm the timer as ``start()`` at instant ``born`` would have left
        it, ``deadline`` being ``born`` + interval: same firing instant,
        same place among the events due then (``Simulator.schedule_at``)."""
        self.stop()
        self._handle = handle = self.sim.schedule_at(
            deadline, self._fire, born=born, seq=self.rank)
        self.rank = handle.seq

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        self._handle = None
        self.callback()
