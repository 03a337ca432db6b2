"""Convergence measurement.

Implements the paper's methodology (section VI.B): record the exact
failure-injection time, then watch update messages on all devices; when
they stop, the last update's timestamp is the convergence end time.
"""

from __future__ import annotations

import functools
from typing import Optional

from repro.sim.trace import TraceRecord
from repro.sim.units import MILLISECOND, SECOND
from repro.net.world import World


class QuiescenceTimeout(TimeoutError):
    """The control plane failed to go quiet within its budget.

    Replaces the bare :class:`TimeoutError` with enough context to
    diagnose a supervisor quarantine record without re-running the task:
    where the simulated clock stood, how many timers were still pending
    (a runaway flap storm looks very different from a drained queue),
    and the last trace event emitted.  It pickles with those fields.
    """

    def __init__(self, message: str, *, sim_time_us: int,
                 pending_events: int, last_event: str = "") -> None:
        detail = (f"{message} [sim t={sim_time_us} us, "
                  f"{pending_events} pending timer(s)"
                  + (f", last event: {last_event}" if last_event else "")
                  + "]")
        super().__init__(detail)
        self.message = message
        self.sim_time_us = sim_time_us
        self.pending_events = pending_events
        self.last_event = last_event

    def __reduce__(self):
        # an exception pickles as ``cls(*args)``; the fields are keyword-only
        return (functools.partial(type(self), sim_time_us=self.sim_time_us,
                                  pending_events=self.pending_events,
                                  last_event=self.last_event),
                (self.message,))


def _last_event_description(world: World) -> str:
    records = world.trace.records
    return str(records[-1]) if records else ""


class ConvergenceMonitor:
    """Live listener for update-message trace events."""

    def __init__(self, world: World, categories: tuple[str, ...]) -> None:
        self.world = world
        self.categories = set(categories)
        self.armed_at: Optional[int] = None
        self.first_update_time: Optional[int] = None
        self.last_update_time: Optional[int] = None
        self.update_count = 0
        self.update_bytes = 0
        self.updating_nodes: set[str] = set()
        world.trace.add_listener(self._on_record)

    def arm(self, at_time: Optional[int] = None) -> None:
        """Start counting updates from ``at_time`` (default: now)."""
        self.armed_at = self.world.sim.now if at_time is None else at_time
        self.first_update_time = None
        self.last_update_time = None
        self.update_count = 0
        self.update_bytes = 0
        self.updating_nodes.clear()

    def _on_record(self, record: TraceRecord) -> None:
        if self.armed_at is None or record.time < self.armed_at:
            return
        if record.category not in self.categories:
            return
        if self.first_update_time is None:
            self.first_update_time = record.time
        self.last_update_time = record.time
        self.update_count += 1
        self.update_bytes += int(record.data.get("bytes", 0))
        self.updating_nodes.add(record.node)

    # ------------------------------------------------------------------
    def convergence_time_us(self) -> Optional[int]:
        """Failure-to-last-update interval; None if no update was seen."""
        if self.armed_at is None or self.last_update_time is None:
            return None
        return self.last_update_time - self.armed_at

    def run_until_quiet(
        self,
        quiet_us: int = 1 * SECOND,
        max_wait_us: int = 60 * SECOND,
        slice_us: int = 50 * MILLISECOND,
        min_wait_us: int = 0,
        strict: bool = False,
    ) -> bool:
        """Advance the simulation until no update has been seen for
        ``quiet_us`` (bounded by ``max_wait_us`` after arming).

        ``min_wait_us`` must cover the slowest failure-detection path —
        the far end of a one-sided failure only reacts after its dead /
        hold timer, so stopping earlier would miss its updates entirely.

        Returns True once quiescence was reached.  Hitting the
        ``max_wait_us`` budget first returns False — or, with
        ``strict=True``, raises :class:`QuiescenceTimeout` (never-quiet
        runs such as a flap storm under persistent loss legitimately
        saturate the budget, so raising is opt-in).
        """
        assert self.armed_at is not None, "arm() before run_until_quiet()"
        sim = self.world.sim
        deadline = self.armed_at + max_wait_us
        earliest_stop = self.armed_at + min_wait_us
        while sim.now < deadline:
            sim.run(until=min(sim.now + slice_us, deadline))
            if sim.now < earliest_stop:
                continue
            reference = self.last_update_time
            if reference is None:
                reference = self.armed_at
            if sim.now - reference >= quiet_us:
                return True
        if strict:
            raise QuiescenceTimeout(
                f"updates did not quiesce within {max_wait_us} us of "
                f"arming ({self.update_count} updates seen)",
                sim_time_us=sim.now, pending_events=sim.pending_events,
                last_event=_last_event_description(self.world))
        return False

    def detach(self) -> None:
        self.world.trace.remove_listener(self._on_record)


def converge_from_cold(
    world: World,
    deployment,
    max_time_us: int = 30 * SECOND,
    quiet_us: int = 500 * MILLISECOND,
    slice_us: int = 100 * MILLISECOND,
) -> None:
    """Run a freshly started deployment until it has been
    :meth:`~repro.stacks.Deployment.ready` for ``quiet_us``.  Raises
    :class:`QuiescenceTimeout` on timeout — and as soon as the queue is
    empty while not ready: nothing is left that could make it ready (a
    converged MR-MTP fabric schedules nothing)."""
    sim = world.sim
    deadline = sim.now + max_time_us
    satisfied_since: Optional[int] = None
    outcome = f"did not converge within {max_time_us} us"
    while sim.now < deadline:
        sim.run(until=min(sim.now + slice_us, deadline))
        if deployment.ready():
            if satisfied_since is None:
                satisfied_since = sim.now
            elif sim.now - satisfied_since >= quiet_us:
                return
        else:
            satisfied_since = None
            if sim.queue_depth == 0:  # O(1); pending_events walks the queue
                outcome = "fell silent unconverged"
                break
    raise QuiescenceTimeout(
        f"deployment {outcome}",
        sim_time_us=sim.now, pending_events=sim.pending_events,
        last_event=_last_event_description(world),
    )
