"""One executor for every campaign: cache, checkpoint, fan-out, supervision.

A campaign is a list of picklable specs of one :class:`TaskKind` (the
simulator's is ``SCENARIO_RUN``).  :func:`run_tasks` answers what it can
from the :class:`~repro.harness.cache.ResultCache`, runs the rest through
one scheduler, :func:`run_sharing_worlds`, checkpoints every result the
moment it finishes, and returns outcomes in spec order.  The scheduler's
one process primitive is ``os.fork`` (:mod:`repro.harness.fork`):

==========  ======================  =====================================
mode        when                    what it is
==========  ======================  =====================================
serial      one job, no policy      one child at a time; a world's last
                                    task runs in this process
fan-out     > 1 job, no policy      up to ``jobs`` children, one per core
                                    at most, collected as they end
supervised  a :class:`RetryPolicy`  the same, each child under the
                                    policy's deadline
==========  ======================  =====================================

For a kind with a ``world_key``, this process converges each world once
and forks the tasks that share it from it, copy-on-write (DESIGN §7
"Converged worlds, forked").  The engine is deterministic per seed, so
no mode, nor a cache replay, changes a run digest —
:func:`assert_fanout_deterministic` is that check.

Supervision is the fabric protocols' own discipline — Quick to Detect,
Slow to Accept — applied to the machinery: a hung child is *killed*,
never awaited; failed attempts retry with seeded backoff, re-forked from
the same world; a task failing identically twice (exception class and
traceback digest) is a deterministic bug, quarantined at once, and its
slot is ``None``: the campaign degrades, it does not abort.  A task's
account is a :class:`TaskRecord`.  Results are checkpointed as they
finish, so re-running an interrupted campaign runs only what did not.
"""

from __future__ import annotations

import gc
import heapq
import os
import pickle
import random
import re
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.harness.cache import ResultCache
from repro.harness.convergence import QuiescenceTimeout
from repro.harness.digest import payload_digest, stable_seed
from repro.harness.fork import (
    ERROR,
    OK,
    Child,
    ChildTraceback,
    ForkedTaskDied,
    NoFork,
    fork_task,
    kill_and_reap,
    sharing_cores,
    wait_any,
)

# task states
PENDING = "pending"
RUNNING = "running"
RETRYING = "retrying"
DONE = "done"
QUARANTINED = "quarantined"
CACHED = "cached"

# attempt outcomes besides OK and ERROR (the task raised)
TIMEOUT = "timeout"   # the watchdog killed a child past its deadline
CRASH = "crash"       # the child died without reporting (OOM, segfault)


@dataclass(frozen=True)
class TaskKind:
    """One kind of campaign task: ``run(spec)`` computes an outcome,
    ``key(spec)`` is its result-cache key, ``encode``/``decode`` the
    cached payload codec, ``label(spec)`` the name quarantine tables
    print.  A kind whose tasks may share a converged world names it with
    ``world_key(spec)`` and builds it with ``converge(spec)``; its
    ``run(spec, world)`` then plays on that world in place, and
    ``run(spec)`` converges its own."""

    name: str
    run: Callable[..., Any]
    key: Callable[[Any], str]
    encode: Callable[[Any], dict]
    decode: Callable[[dict], Any]
    label: Callable[[Any], str]
    world_key: Optional[Callable[[Any], str]] = None
    converge: Optional[Callable[[Any], Any]] = None


class DeterminismError(AssertionError):
    """Serial and parallel execution disagreed — a nondeterminism bug
    (wall-clock dependence, cross-task shared state, unseeded RNG...)."""


@dataclass(frozen=True)
class RetryPolicy:
    """How the supervised mode treats a failing task: ``deadline_s`` is
    the per-attempt wall-clock budget (None: no watchdog), and the
    backoff a pure function of (policy seed, task key, attempt)."""

    deadline_s: Optional[float] = None
    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, "
                             f"got {self.max_attempts}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, "
                             f"got {self.deadline_s}")


def backoff_schedule(policy: RetryPolicy, key: str) -> list[float]:
    """Delays (seconds) before attempts 2..max_attempts: exponential with
    a cap, jittered into [cap/2, cap] by an RNG seeded from the task key —
    deterministic per key, decorrelated across keys."""
    delays = []
    for attempt in range(1, policy.max_attempts):
        cap = min(policy.backoff_cap_s,
                  policy.backoff_base_s * (2 ** (attempt - 1)))
        rng = random.Random(stable_seed("supervisor-backoff", policy.seed,
                                        key, attempt))
        delays.append(cap * (0.5 + 0.5 * rng.random()))
    return delays


@dataclass
class Attempt:
    """One execution attempt of one task."""

    number: int
    outcome: str                 # ok | error | timeout | crash
    duration_s: float
    exception: str = ""          # exception class (or WorkerCrash/...)
    traceback_digest: str = ""   # normalized-traceback fingerprint
    detail: str = ""             # first line of the exception / context


@dataclass
class TaskRecord:
    """The executor's structured account of one task."""

    index: int
    key: str
    label: str
    state: str = PENDING
    attempts: list[Attempt] = field(default_factory=list)
    backoff_s: list[float] = field(default_factory=list)
    quarantine_reason: str = ""

    @property
    def failure_class(self) -> str:
        """The exception class of the last failed attempt, if any."""
        for attempt in reversed(self.attempts):
            if attempt.outcome != OK:
                return attempt.exception or attempt.outcome
        return ""


@dataclass
class CampaignReport:
    """What one or more :func:`run_tasks` calls did."""

    total: int = 0
    executed: int = 0
    cached: int = 0
    jobs: int = 1
    cache_stored: int = 0
    notes: list[str] = field(default_factory=list)
    records: list[TaskRecord] = field(default_factory=list)

    @property
    def quarantined(self) -> list[TaskRecord]:
        return [r for r in self.records if r.state == QUARANTINED]

    @property
    def retried(self) -> list[TaskRecord]:
        return [r for r in self.records if len(r.attempts) > 1]

    def describe(self) -> str:
        line = (f"{self.total} tasks: {self.executed} executed "
                f"({self.jobs} jobs), {self.cached} from cache")
        if self.retried:
            line += f", {len(self.retried)} retried"
        if self.quarantined:
            line += f", {len(self.quarantined)} quarantined"
        return line


class CampaignInterrupted(KeyboardInterrupt):
    """Ctrl-C during a campaign: what finished was checkpointed (given a
    cache), and this carries the accounting the resume command needs."""

    def __init__(self, done: int, total: int, salvaged: int) -> None:
        super().__init__(f"interrupted: {done}/{total} tasks done "
                         f"({salvaged} checkpointed this run)")
        self.done = done
        self.total = total
        self.salvaged = salvaged


_HEX_ADDR = re.compile(r"0x[0-9a-fA-F]+")


@contextmanager
def _collector_paused():
    """Automatic cyclic collection off for one call's tasks (DESIGN §7
    "World lifetime"): a world is nearly the only cyclic garbage a run
    makes.  One full collection on entry frees what an earlier campaign
    left; what is alive then is frozen out of every later pass.  Left as
    found, even on Ctrl-C (a caller's own freeze is the caller's)."""
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    gc.collect()
    gc.disable()
    if not frozen:
        gc.freeze()
    try:
        yield
    finally:
        if not frozen:
            gc.unfreeze()
        if enabled:
            gc.enable()


# ----------------------------------------------------------------------
# the scheduler
# ----------------------------------------------------------------------
def _cold(run: Callable[..., Any], converge: Optional[Callable[[Any], Any]],
          spec: Any) -> Any:
    """A task on a world of its own, converged where it runs."""
    return run(spec) if converge is None else run(spec, converge(spec))


@dataclass
class _World:
    """A group's world, converged on first use and dropped when ``left``
    (its tasks not yet through with it) reaches 0."""

    left: int
    world: Any = None


def run_sharing_worlds(run: Callable[..., Any],
                       converge: Optional[Callable[[Any], Any]],
                       tasks: Sequence[tuple[Any, str, Any]],
                       done: Optional[Callable[..., None]] = None,
                       notes: Optional[list[str]] = None, *, jobs: int = 1,
                       policy: Optional[RetryPolicy] = None,
                       failed: Optional[Callable[..., Optional[float]]] = None,
                       ) -> list[Any]:
    """Run ``tasks`` — ``(world key, label, spec)`` — from this process;
    outcomes in task order, each also passed to ``done(i, outcome,
    attempt)`` the moment it exists.

    Tasks of one world key form a group, groups in order of first
    occurrence.  A group's world is converged here when its first task
    is due, its tasks are forked from it, at most ``jobs`` children alive
    and read whichever is readable, and it is dropped after its last
    fork; only then is the next built, so a child never carries two.  A
    group of one (every task, without a ``converge``) converges in its
    own child, in parallel with others.  Serially (``jobs`` 1, no
    ``policy``) a group's last task, and a group of one, run here.

    Under a ``policy`` a child past its deadline is killed (``TIMEOUT``);
    one ending without a report (``CRASH``) or with an exception
    (``ERROR``) goes to ``failed(i, attempt)``: the delay before a retry,
    forked from the same world (kept until the group settles), or None;
    a converge that raises here is left to the child.  Without one, a
    child's exception is re-raised here with its own type and a silent
    death raises :class:`ForkedTaskDied`.  A
    :class:`~repro.harness.convergence.QuiescenceTimeout`, a fabric the
    stack refuses to converge on, is a finding, not a fault: it is
    raised here with or without a policy, never retried.  On any
    exception, Ctrl-C included, every live child is killed and reaped
    first.  If this process cannot fork, the task runs here, the group's
    next task converges anew, and ``notes`` gets one line.  Collection is
    paused, but for a ``gc.collect()`` before each world built here but
    the first.
    A task's :func:`~repro.harness.fork.spare_width` is its ``1/jobs``
    share of the cores.
    """
    groups: dict[Any, list[int]] = {}
    for i, (key, _label, _spec) in enumerate(tasks):
        groups.setdefault(i if key is None or converge is None else key,
                          []).append(i)
    serial = jobs == 1 and policy is None
    todo = deque(groups.values())              # groups not started yet
    ready: list[tuple[float, int, int]] = []   # (not before, task, attempt)
    holders: dict[int, Optional[_World]] = {}
    children: dict[int, Child] = {}
    outcomes: list[Any] = [None] * len(tasks)
    live: Optional[_World] = None    # the group whose world is in use
    owed = False                     # a dropped world awaits collection

    def collect() -> None:
        nonlocal owed
        if owed:
            gc.collect()
            owed = False

    def leave(holder: Optional[_World]) -> None:
        nonlocal live, owed
        if holder is not None:
            holder.left -= 1
            if not holder.left:
                owed = owed or holder.world is not None
                holder.world = live = None

    def settle(i: int, attempt: int, started: float, outcome: Any) -> None:
        outcomes[i] = outcome
        if done is not None:
            done(i, outcome, Attempt(attempt, OK, time.monotonic() - started))
        if policy is not None:
            leave(holders[i])

    def fail(child: Child, outcome: str, *why: str) -> None:
        delay = failed(child.index, Attempt(
            child.attempt, outcome, time.monotonic() - child.started, *why))
        if delay is None:
            leave(holders[child.index])
        else:
            heapq.heappush(ready, (time.monotonic() + delay, child.index,
                                   child.attempt + 1))

    def launch(i: int, attempt: int) -> None:
        nonlocal owed
        spec, holder = tasks[i][2], holders[i]
        if holder is not None and holder.world is None:
            collect()
            try:
                holder.world = converge(spec)
            except Exception as exc:
                if policy is None or isinstance(exc, QuiescenceTimeout):
                    raise
                holder = None   # the child converges: a failure is an attempt
        job, args = ((_cold, (run, converge, spec)) if holder is None
                     else (run, (spec, holder.world)))
        started = time.monotonic()
        if not serial or (holder is not None and holder.left > 1):
            deadline = policy and policy.deadline_s and (
                started + policy.deadline_s)
            try:
                fork_task(children, job, args, index=i, attempt=attempt,
                          started=started, deadline=deadline)
            except NoFork as why:
                note = (f"fork unavailable ({why}): tasks ran in-process, "
                        f"one at a time, each converging its world")
                if notes is not None and note not in notes:
                    notes.append(note)
            else:
                if policy is None:
                    leave(holder)
                return
        collect()
        outcome = job(*args)
        if holder is not None:
            holder.world = None   # played on: the next task converges anew
        owed = True
        if policy is None:
            leave(holder)
        settle(i, attempt, started, outcome)

    def finish(child: Child) -> None:
        label = tasks[child.index][1]
        try:
            tag, *rest = pickle.loads(child.blob)
        except Exception:  # noqa: BLE001 — empty or cut short: no report
            if policy is None:
                raise ForkedTaskDied(label, child.status) from None
            code = os.waitstatus_to_exitcode(child.status)
            return fail(child, CRASH, "WorkerCrash", "",
                        f"worker exited with code {code} without reporting")
        if tag == OK:
            return settle(child.index, child.attempt, child.started, rest[0])
        exc, text, name, detail = rest
        if policy is not None and not isinstance(exc, QuiescenceTimeout):
            digest = payload_digest(_HEX_ADDR.sub("0x~", text))[:16]
            return fail(child, ERROR, name, digest, detail)
        if exc is None:
            raise RuntimeError(f"task {label} failed in its forked child "
                               f"with an exception that cannot be "
                               f"pickled:\n{text}")
        raise exc from ChildTraceback(text)

    with _collector_paused(), sharing_cores(jobs):
        try:
            while todo or ready or children:
                now = time.monotonic()
                room = len(children) < jobs
                if room and ready and ready[0][0] <= now:
                    launch(*heapq.heappop(ready)[1:])
                elif room and todo and live is None:
                    members = todo.popleft()
                    if converge is not None and (serial or len(members) > 1):
                        live = _World(len(members))
                    for i in members:
                        holders[i] = live
                        heapq.heappush(ready, (0.0, i, 1))
                elif not children:
                    time.sleep(ready[0][0] - now)   # a retry's backoff
                else:
                    waits = [c.deadline for c in children.values()
                             if c.deadline is not None]
                    if room and ready:
                        waits.append(ready[0][0])
                    for child in wait_any(children, max(
                            0.0, min(waits) - now) if waits else None):
                        finish(child)
                    now = time.monotonic()
                    for child in [c for c in children.values()
                                  if c.deadline and now >= c.deadline]:
                        del children[child.fd]
                        kill_and_reap([child])
                        fail(child, TIMEOUT, "WatchdogTimeout", "",
                             f"killed after {now - child.started:.1f}s "
                             f"(deadline {policy.deadline_s:.1f}s)")
        except BaseException:
            kill_and_reap(list(children.values()))
            raise
    return outcomes


# ----------------------------------------------------------------------
# the executor
# ----------------------------------------------------------------------
def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: None/0 means one per core."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def run_tasks(
    kind: TaskKind,
    specs: Sequence[Any],
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    policy: Optional[RetryPolicy] = None,
    report: Optional[CampaignReport] = None,
    allow_oversubscribe: bool = False,
) -> list[Optional[Any]]:
    """Run ``kind`` over ``specs``; outcomes in spec order.

    Specs with a ``cache`` entry are decoded from it; the rest run
    through :func:`run_sharing_worlds` (supervised, given a ``policy``),
    each result checkpointed as it finishes; a quarantined slot is
    ``None``.  ``jobs`` is clamped to one child per core, with a note
    (this process waits in ``select``, on no core); ``allow_oversubscribe``
    keeps it, so the determinism guard can fan out on any host.
    """
    report = CampaignReport() if report is None else report
    jobs = resolve_jobs(jobs)
    cores = os.cpu_count() or 1
    if jobs > cores and not allow_oversubscribe:
        report.notes.append(f"clamped to {cores} job(s): {jobs} jobs would "
                            f"oversubscribe {cores} core(s)")
        jobs = cores
    report.total += len(specs)
    report.jobs = jobs

    outcomes: list[Optional[Any]] = [None] * len(specs)
    records = [TaskRecord(index=i, key=kind.key(spec), label=kind.label(spec))
               for i, spec in enumerate(specs)]
    report.records.extend(records)
    pending = []
    for record in records:
        hit = cache.get(record.key) if cache is not None else None
        if hit is None:
            record.state = RUNNING
            pending.append(record)
        else:
            outcomes[record.index] = kind.decode(hit)
            record.state = CACHED
            report.cached += 1

    def settle(i: int, outcome: Any, attempt: Attempt) -> None:
        """Record a fresh result and checkpoint it at once."""
        record = pending[i]
        if policy is not None:
            record.attempts.append(attempt)
        outcomes[record.index] = outcome
        record.state = DONE
        report.executed += 1
        if cache is not None:
            cache.put(record.key, kind.encode(outcome))
            report.cache_stored += 1

    def failed(i: int, attempt: Attempt) -> Optional[float]:
        """The delay before a failed task's retry, or None: quarantined."""
        record = pending[i]
        last = [(a.outcome, a.exception, a.traceback_digest)
                for a in record.attempts[-1:]]
        record.attempts.append(attempt)
        if attempt.outcome == ERROR and last == [
                (ERROR, attempt.exception, attempt.traceback_digest)]:
            reason = (f"deterministic failure: {attempt.exception} twice "
                      f"with identical traceback ({attempt.detail})")
        elif attempt.number >= policy.max_attempts:
            reason = (f"exhausted {policy.max_attempts} attempt(s); last: "
                      f"{attempt.outcome} ({attempt.exception}: "
                      f"{attempt.detail})")
        else:
            delay = backoff_schedule(policy, record.key)[attempt.number - 1]
            record.backoff_s.append(delay)
            record.state = RETRYING
            return delay
        record.state = QUARANTINED
        record.quarantine_reason = reason.strip()
        return None

    try:
        if pending:
            run_sharing_worlds(
                kind.run, kind.converge,
                [(None if kind.world_key is None
                  else kind.world_key(specs[r.index]), r.label,
                  specs[r.index]) for r in pending],
                settle, report.notes, jobs=jobs, policy=policy,
                failed=failed)
    except KeyboardInterrupt:
        done = sum(1 for r in records if r.state in (DONE, CACHED))
        raise CampaignInterrupted(done=done, total=len(specs),
                                  salvaged=report.cache_stored) from None
    return outcomes


def assert_fanout_deterministic(kind: TaskKind, specs: Sequence[Any], *,
                                jobs: int = 2) -> list[str]:
    """The determinism guard: run ``specs`` serially, with ``jobs``
    children and supervised (on any host), and raise
    :class:`DeterminismError` on the first run digest that differs."""
    serial = [o.digest for o in run_tasks(kind, specs)]
    for how, policy in (("parallel", None), ("supervised", RetryPolicy())):
        fanned = [o.digest for o in run_tasks(
            kind, specs, jobs=jobs, policy=policy, allow_oversubscribe=True)]
        for i, (a, b) in enumerate(zip(serial, fanned)):
            if a != b:
                raise DeterminismError(
                    f"task {i}: serial digest {a[:16]}... != {how} digest "
                    f"{b[:16]}... (jobs={jobs}) — spec {specs[i]!r}")
    return serial
