"""One executor for every campaign: cache, checkpoint, fan-out, supervision.

A campaign is a list of picklable specs of one :class:`TaskKind`.  The
simulator declares one kind, ``SCENARIO_RUN``
(:mod:`repro.scenario.runner`): a seeded failure run, a ``repro load``
run, a sweep point and a chaos point are all scenario programs; other
kinds exist only as test doubles of the executor.
:func:`run_tasks` answers what it can from the content-addressed
:class:`~repro.harness.cache.ResultCache`, runs the rest, checkpoints
every result the moment it finishes, and returns outcomes in spec order.
How the rest runs follows from the call:

==========  ==================================  ===========================
strategy    when                                what it is
==========  ==================================  ===========================
inline      one effective job, no policy        a loop in this process
pool        > 1 effective job, no policy        a ``ProcessPoolExecutor``
                                                over chunks of tasks
supervised  a :class:`RetryPolicy` was given    one watched child process
                                                per attempt, any job count
==========  ==================================  ===========================

The engine is deterministic per seed, so the strategy never changes a
result: a run digest (trace + metrics hash, :mod:`repro.harness.digest`)
is identical whether its task ran inline, in a pool worker, in a
supervised child or was replayed from the cache —
:func:`assert_fanout_deterministic` is that check.

The two in-process strategies share converged worlds: for a kind with
a ``world_key``, the process running the tasks (the caller inline, a
pool worker per chunk) groups them by that key, converges each world
once with ``kind.converge`` and runs every task of the group but the
last in a forked child, which inherits the world copy-on-write; the
last runs on the world itself (DESIGN §7 "Converged worlds, forked").
Supervised children never share — each attempt is an isolated process
building its own world.

Whatever runs them, tasks run through :func:`run_sharing_worlds`, which
pauses automatic cyclic collection and collects once for every world
the process drops, before it builds the next.

Supervision applies the fabric protocols' own discipline — Quick to
Detect, Slow to Accept — to the machinery that runs them: a hung
``run_until_quiet``, an OOM-killed worker or a Ctrl-C must not lose what
a long campaign already computed.  Every attempt runs under a wall-clock
deadline enforced by the watchdog (a hung worker is *killed*, never
awaited).  Failed attempts retry with seeded exponential backoff, but a
task that fails identically twice (same exception class, same traceback
digest) is a deterministic bug, not flake — it is quarantined at once,
without burning a third attempt; timeouts and crashes, which can be
environmental, retry up to the attempt bound.  A quarantined task's slot
comes back ``None``: the campaign degrades, it does not abort.  Every
task's account is a :class:`TaskRecord` (pending → running → retrying →
done | quarantined, or cached).

Because results are checkpointed as they finish, an interrupted campaign
resumes exactly where it stopped: re-running the same command replays
the checkpointed tasks and executes only the rest, with digests
byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import gc
import heapq
import multiprocessing as mp
import os
import pickle
import random
import re
import signal
import sys
import threading
import time
import traceback
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.harness.cache import ResultCache
from repro.harness.digest import payload_digest, stable_seed

# task states
PENDING = "pending"
RUNNING = "running"
RETRYING = "retrying"
DONE = "done"
QUARANTINED = "quarantined"
CACHED = "cached"

# attempt outcomes
OK = "ok"
ERROR = "error"       # the task raised a Python exception
TIMEOUT = "timeout"   # the watchdog killed a worker past its deadline
CRASH = "crash"       # the worker died without reporting (OOM, segfault)


@dataclass(frozen=True)
class TaskKind:
    """One kind of campaign task.

    ``run(spec)`` computes an outcome — a top-level function, so a pool
    worker or a supervised child can receive it; ``key(spec)`` is the
    result-cache key, ``encode``/``decode`` the cached payload codec and
    ``label(spec)`` the name quarantine tables print.  A kind whose runs
    converge a world other tasks of the same list may share names that
    world with ``world_key(spec)`` and builds it with ``converge(spec)``;
    its ``run(spec, world)`` then plays on that world in place, and
    ``run(spec)`` converges its own.
    """

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
    """How the supervised strategy treats a failing task.

    ``deadline_s`` is the per-attempt wall-clock budget (None disables
    the watchdog).  Backoff is exponential with deterministic per-key
    jitter — the schedule is a pure function of (policy seed, task key,
    attempt), so reruns back off identically.
    """

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
    """Delays (seconds) before attempts 2..max_attempts for one task.

    Exponential with a cap, jittered into [cap/2, cap] by an RNG seeded
    from the task key — deterministic per key (the property the tests
    pin down), decorrelated across keys so a failing grid does not
    retry in lockstep.
    """
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
    """Ctrl-C during a campaign.  Tasks that had finished were already
    checkpointed (when a cache is attached); the exception carries the
    salvage accounting so the CLI can print the resume command."""

    def __init__(self, done: int, total: int, salvaged: int) -> None:
        super().__init__(f"interrupted: {done}/{total} tasks done "
                         f"({salvaged} checkpointed this run)")
        self.done = done
        self.total = total
        self.salvaged = salvaged


# ----------------------------------------------------------------------
# converged worlds: converge once, fork the rest
# ----------------------------------------------------------------------
class ForkedTaskDied(RuntimeError):
    """A task's forked child ended without reporting an outcome (killed,
    out of memory, or its report was cut short)."""

    def __init__(self, label: str, status: int) -> None:
        code = os.waitstatus_to_exitcode(status)
        how = (f"killed by signal {-code}" if code < 0
               else f"exit status {code}")
        super().__init__(f"forked task {label} died without reporting "
                         f"({how})")
        self.label = label
        self.status = status
        self.exitcode = code

    def __reduce__(self):
        # a pool worker's chunk sends it back to the campaign's parent
        return type(self), (self.label, self.status)


class _ChildTraceback(Exception):
    """The traceback of an exception a forked task raised, as text: the
    ``__cause__`` of the exception re-raised in the parent."""

    def __str__(self) -> str:
        return self.args[0]


class _NoFork(Exception):
    """This process cannot fork a task; the reason is the message."""


def _child(run: Callable[..., Any], spec: Any, world: Any,
           write_fd: int) -> None:
    """The forked side of :func:`_forked`: run the task, pickle its
    outcome (or its exception) into the pipe, flush what the task itself
    printed and leave with ``os._exit`` — never back through the
    parent's frames, its ``finally`` blocks or its stdio buffers."""
    code = 1
    try:
        try:
            message = (OK, run(spec, world))
        except BaseException as exc:  # noqa: BLE001 — reported, not lost
            text = "".join(traceback.format_exception(type(exc), exc,
                                                      exc.__traceback__))
            message = (ERROR, exc, text)
            try:
                pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
            except Exception:  # noqa: BLE001 — the text still travels
                message = (ERROR, None, text)
        try:
            blob = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        except Exception:  # noqa: BLE001 — an unpicklable outcome
            blob = pickle.dumps((ERROR, None, traceback.format_exc()),
                                pickle.HIGHEST_PROTOCOL)
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(blob)
        sys.stdout.flush()
        sys.stderr.flush()
        code = 0
    finally:
        os._exit(code)


def _kill_and_reap(pid: int) -> None:
    """SIGKILL a forked task and wait for it, with Ctrl-C held off so a
    second one cannot leave it a zombie."""
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    except (ProcessLookupError, ChildProcessError):
        pass  # already reaped
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _forked(run: Callable[..., Any], spec: Any, world: Any,
            label: str) -> Any:
    """``run(spec, world)`` in a forked child of this process, which
    inherits ``world`` copy-on-write and leaves this process's copy as
    it was.  Returns the child's outcome or re-raises its exception with
    its own type; raises :class:`ForkedTaskDied` if the child reported
    nothing, and :class:`_NoFork` if no child could be forked.

    The parent reads the pipe to EOF, then reaps the child; on Ctrl-C
    (or any exception) it kills and reaps the child first.  Stdio is
    flushed before the fork, so the child inherits empty buffers and
    nothing the parent wrote appears twice.  The child runs with SIGINT
    blocked: Ctrl-C is the parent's to handle.  Only Python threads stop
    a fork: numpy's BLAS pool is an idle OS thread with its own fork
    handlers."""
    if not hasattr(os, "fork"):
        raise _NoFork("os.fork is missing")
    if threading.active_count() > 1:
        raise _NoFork(f"{threading.active_count()} threads are running")
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        with warnings.catch_warnings():
            # CPython 3.12+ warns whenever the process has a second OS
            # thread, which an imported numpy's BLAS pool always is
            warnings.filterwarnings(
                "ignore", r".*use of fork\(\) may lead to deadlocks",
                DeprecationWarning)
            pid = os.fork()
    except OSError as exc:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        os.close(read_fd)
        os.close(write_fd)
        raise _NoFork(f"os.fork failed: {exc}") from None
    if pid == 0:
        os.close(read_fd)
        _child(run, spec, world, write_fd)  # never returns
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        try:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            blob = pipe.read()
            status = os.waitpid(pid, 0)[1]
        except BaseException:
            _kill_and_reap(pid)
            raise
    try:
        tag, *rest = pickle.loads(blob)
    except Exception:  # noqa: BLE001 — empty or cut short: no report
        raise ForkedTaskDied(label, status) from None
    if tag == OK:
        return rest[0]
    exc, text = rest
    if exc is None:
        raise RuntimeError(f"task {label} failed in its forked child with "
                           f"an exception that cannot be pickled:\n{text}")
    raise exc from _ChildTraceback(text)


@contextmanager
def _collector_paused():
    """Automatic cyclic collection off for the tasks of one call (DESIGN
    §7 "World lifetime").

    A world is one large web of reference cycles, and nearly the only
    cyclic garbage a run makes, so the automatic collector would only
    re-walk the live world during a run and free a finished one at some
    later full pass.  Here it is paused instead.  One full collection on
    entry frees what an earlier campaign left, so no garbage is frozen;
    what is alive then (imports, registries, the cache) is frozen out of
    every later pass.  The collector is left exactly as found, even on
    an exception or Ctrl-C (a caller's own freeze is the caller's to
    undo)."""
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


def run_sharing_worlds(run: Callable[..., Any],
                       converge: Optional[Callable[[Any], Any]],
                       tasks: Sequence[tuple[Any, str, Any]],
                       done: Optional[Callable[[int, Any], None]] = None,
                       notes: Optional[list[str]] = None) -> list[Any]:
    """Run ``tasks`` — ``(world key, label, spec)`` — in this process;
    outcomes in task order, each also passed to ``done(i, outcome)`` the
    moment it exists.

    With a ``converge``, tasks of one world key form a group, in order of
    first occurrence.  A group converges its world once; every task but
    the last runs ``run(spec, world)`` in a forked child, the last runs
    it here, on the world itself, which is then dropped — so a one-task
    group is a plain cold run.  Without one (or for a ``None`` key),
    every task is its own group and runs ``run(spec)`` here.  If this
    process cannot fork, the task runs here instead, the group's next
    task converges the world again, and ``notes`` gets one line saying
    why.

    Automatic collection is paused throughout (:func:`_collector_paused`);
    one ``gc.collect()`` before each world but the first frees the world
    the group before dropped.  A forked task's world dies with its
    process.  The inline loop, the pool's chunk runner and a supervised
    attempt all run their tasks through here.
    """
    groups: dict[Any, list[int]] = {}
    for i, (key, _label, _spec) in enumerate(tasks):
        groups.setdefault(i if key is None else key, []).append(i)
    outcomes: list[Any] = [None] * len(tasks)
    with _collector_paused():
        owed = False    # a dropped world awaits its collection
        for members in groups.values():
            world = None
            for n, i in enumerate(members):
                _key, label, spec = tasks[i]
                if owed:
                    gc.collect()
                    owed = False
                if converge is None:
                    outcome = run(spec)
                    owed = True
                else:
                    if world is None:
                        world = converge(spec)
                    here = n == len(members) - 1
                    if not here:
                        try:
                            outcome = _forked(run, spec, world, label)
                        except _NoFork as why:
                            note = (f"fork unavailable ({why}): tasks that "
                                    f"share a world ran in-process, each "
                                    f"converging it")
                            if notes is not None and note not in notes:
                                notes.append(note)
                            here = True
                    if here:
                        outcome = run(spec, world)
                        world = None
                        owed = True
                outcomes[i] = outcome
                if done is not None:
                    done(i, outcome)
    return outcomes

# ----------------------------------------------------------------------
# the executor
# ----------------------------------------------------------------------
def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: None/0 means one worker per core."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def default_chunk_size(n_tasks: int, jobs: int) -> int:
    """Pool chunks: ~4 per worker amortizes IPC overhead while keeping
    the tail balanced."""
    return max(1, n_tasks // (jobs * 4))


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
    inline, through the pool, or — given a ``policy`` — supervised (see
    the module docstring), and each result is checkpointed into the
    cache as it finishes.  A quarantined task's slot is ``None``.

    When the host has no spare core for the requested worker count
    (``os.cpu_count() <= jobs``), concurrency cannot beat one job at a
    time — worker start-up and pickling are pure overhead on a saturated
    CPU (a 1-core host ran the pool at ~0.55x serial) — so ``jobs`` is
    clamped to 1 and the report says so.  Results are identical either
    way; ``allow_oversubscribe=True`` keeps the requested count, e.g. to
    test that very contract.
    """
    report = CampaignReport() if report is None else report
    jobs = resolve_jobs(jobs)
    cores = os.cpu_count() or 1
    if 1 < jobs and cores <= jobs and not allow_oversubscribe:
        report.notes.append(f"clamped to 1 job: {jobs} jobs would "
                            f"oversubscribe {cores} core(s)")
        jobs = 1
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
            pending.append(record)
        else:
            outcomes[record.index] = kind.decode(hit)
            record.state = CACHED
            report.cached += 1

    def settle(record: TaskRecord, outcome: Any) -> None:
        """Record one fresh result and checkpoint it at once — a later
        interrupt must not lose work that already finished."""
        outcomes[record.index] = outcome
        record.state = DONE
        report.executed += 1
        if cache is not None:
            cache.put(record.key, kind.encode(outcome))
            report.cache_stored += 1

    try:
        if policy is not None:
            _supervised(kind.run, specs, pending, jobs, policy, settle)
        else:
            tasks = [(None if kind.world_key is None
                      else kind.world_key(specs[r.index]),
                      r.label, specs[r.index]) for r in pending]
            if jobs > 1 and len(pending) > 1:
                _pooled(kind.run, kind.converge, tasks, pending, jobs,
                        settle, report.notes)
            elif pending:
                run_sharing_worlds(
                    kind.run, kind.converge, tasks,
                    done=lambda i, outcome: settle(pending[i], outcome),
                    notes=report.notes)
    except KeyboardInterrupt:
        done = sum(1 for r in records if r.state in (DONE, CACHED))
        raise CampaignInterrupted(done=done, total=len(specs),
                                  salvaged=report.cache_stored) from None
    return outcomes


def assert_fanout_deterministic(kind: TaskKind, specs: Sequence[Any], *,
                                jobs: int = 2) -> list[str]:
    """The determinism guard: run ``specs`` inline *and* through a
    ``jobs``-worker pool (forced even on a host too small for it — the
    point is to compare the two), compare per-task run digests, and
    raise :class:`DeterminismError` on the first divergence.  Returns
    the (verified) digests."""
    serial = [o.digest for o in run_tasks(kind, specs)]
    fanned = [o.digest for o in run_tasks(kind, specs, jobs=jobs,
                                          allow_oversubscribe=True)]
    for i, (a, b) in enumerate(zip(serial, fanned)):
        if a != b:
            raise DeterminismError(
                f"task {i}: serial digest {a[:16]}... != "
                f"parallel digest {b[:16]}... (jobs={jobs}) — "
                f"spec {specs[i]!r}"
            )
    return serial


# ----------------------------------------------------------------------
# the pool
# ----------------------------------------------------------------------
def _run_chunk(run: Callable[..., Any],
               converge: Optional[Callable[[Any], Any]],
               tasks: list[tuple[Any, str, Any]]) -> tuple[list, list[str]]:
    """Top-level chunk runner (the process pool needs to pickle it): the
    chunk's outcomes and the notes its worker took.  A worker outlives
    its chunks; the collection on entry frees the world of its previous
    one."""
    notes: list[str] = []
    return run_sharing_worlds(run, converge, tasks, notes=notes), notes


def _pooled(run, converge, tasks, pending: list[TaskRecord], jobs: int,
            settle, notes: list[str]) -> None:
    """``tasks`` (one per ``pending`` record) in chunks over a process
    pool, settled as each chunk completes and its notes added once each;
    on Ctrl-C, chunks that finished but were not collected yet are
    salvaged before the interrupt propagates."""
    size = default_chunk_size(len(pending), jobs)
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(pending)))
    futures: dict = {}   # uncollected future -> its records

    def collect(future) -> None:
        outcomes, chunk_notes = future.result()
        for record, outcome in zip(futures.pop(future), outcomes):
            settle(record, outcome)
        notes.extend(n for n in chunk_notes if n not in notes)

    try:
        for i in range(0, len(pending), size):
            futures[pool.submit(_run_chunk, run, converge,
                                tasks[i:i + size])] = pending[i:i + size]
        not_done = set(futures)
        while not_done:
            done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
            for future in done:
                collect(future)
        pool.shutdown()
    except KeyboardInterrupt:
        for future in list(futures):
            if (future.done() and not future.cancelled()
                    and future.exception() is None):
                collect(future)
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        raise


# ----------------------------------------------------------------------
# supervised children: the worker side
# ----------------------------------------------------------------------
_HEX_ADDR = re.compile(r"0x[0-9a-fA-F]+")


def _traceback_digest(exc: BaseException) -> str:
    """Fingerprint of an exception's traceback, stable across runs:
    memory addresses are masked so two identical failures hash equal."""
    text = "".join(traceback.format_exception(type(exc), exc,
                                              exc.__traceback__))
    return payload_digest(_HEX_ADDR.sub("0x~", text))[:16]


def _attempt_child(run: Callable[[Any], Any], spec: Any, conn) -> None:
    """Run one attempt and report through the pipe.  Any exception —
    including a failure to pickle the result — comes back as a
    structured error tuple, never a silent death."""
    try:
        outcome, = run_sharing_worlds(run, None, [(None, "", spec)])
    except BaseException as exc:  # noqa: BLE001 — the whole point
        conn.send((ERROR, type(exc).__name__, _traceback_digest(exc),
                   str(exc).splitlines()[0][:200] if str(exc) else ""))
        conn.close()
        return
    try:
        conn.send((OK, outcome))
    except BaseException as exc:  # unpicklable result
        conn.send((ERROR, type(exc).__name__, _traceback_digest(exc),
                   f"result not picklable: {exc}"[:200]))
    conn.close()


# ----------------------------------------------------------------------
# supervised children: the supervisor side
# ----------------------------------------------------------------------
@dataclass
class _Running:
    record: TaskRecord
    attempt: int
    proc: Any
    conn: Any
    started: float
    deadline: Optional[float]


def _kill(child: _Running) -> None:
    try:
        child.proc.kill()
        child.proc.join(timeout=5)
    finally:
        child.conn.close()


def _supervised(run, specs, pending: list[TaskRecord], jobs: int,
                policy: RetryPolicy, settle) -> None:
    """Every attempt of every ``pending`` task in its own child process,
    at most ``jobs`` at a time, under the watchdog; failures retry or
    quarantine as :class:`RetryPolicy` says (module docstring)."""
    by_index = {record.index: record for record in pending}
    # (not_before, index, attempt): the retry queue, ordered by time
    ready = [(0.0, record.index, 1) for record in pending]
    ctx = mp.get_context()
    running: dict[int, _Running] = {}

    def launch(record: TaskRecord, attempt: int) -> None:
        record.state = RUNNING
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_attempt_child,
                           args=(run, specs[record.index], child_conn),
                           daemon=True)
        proc.start()
        child_conn.close()
        now = time.monotonic()
        deadline = (now + policy.deadline_s
                    if policy.deadline_s is not None else None)
        running[record.index] = _Running(record=record, attempt=attempt,
                                         proc=proc, conn=parent_conn,
                                         started=now, deadline=deadline)

    def quarantine(record: TaskRecord, reason: str) -> None:
        record.state = QUARANTINED
        record.quarantine_reason = reason

    def failed(child: _Running, outcome: str, exception: str, digest: str,
               detail: str) -> None:
        """Retry or quarantine after a failed attempt."""
        record = child.record
        attempt = Attempt(number=child.attempt, outcome=outcome,
                          duration_s=time.monotonic() - child.started,
                          exception=exception, traceback_digest=digest,
                          detail=detail)
        previous = record.attempts[-1] if record.attempts else None
        record.attempts.append(attempt)
        if (outcome == ERROR and previous is not None
                and previous.outcome == ERROR
                and previous.exception == exception
                and previous.traceback_digest == digest):
            quarantine(record,
                       f"deterministic failure: {exception} twice with "
                       f"identical traceback ({detail})".strip())
            return
        if attempt.number >= policy.max_attempts:
            quarantine(record,
                       f"exhausted {policy.max_attempts} attempt(s); "
                       f"last: {outcome} ({exception}: {detail})".strip())
            return
        delay = backoff_schedule(policy, record.key)[attempt.number - 1]
        record.backoff_s.append(delay)
        record.state = RETRYING
        heapq.heappush(ready, (time.monotonic() + delay, record.index,
                               attempt.number + 1))

    try:
        while ready or running:
            now = time.monotonic()
            while ready and len(running) < jobs and ready[0][0] <= now:
                _, index, attempt = heapq.heappop(ready)
                launch(by_index[index], attempt)

            # how long may we sleep? until the next watchdog deadline or
            # the next backoff expiry, whichever comes first
            waits = [child.deadline - now for child in running.values()
                     if child.deadline is not None]
            if ready and len(running) < jobs:
                waits.append(ready[0][0] - now)
            timeout = max(0.0, min(waits)) if waits else None

            if running:
                mp.connection.wait([c.conn for c in running.values()],
                                   timeout=timeout)
            elif timeout:
                time.sleep(timeout)

            now = time.monotonic()
            for child in list(running.values()):
                message = None
                if child.conn.poll():
                    try:
                        message = child.conn.recv()
                    except EOFError:
                        message = None  # died mid-send: treat as crash
                if message is not None:
                    del running[child.record.index]
                    child.proc.join(timeout=5)
                    child.conn.close()
                    if message[0] == OK:
                        child.record.attempts.append(Attempt(
                            number=child.attempt, outcome=OK,
                            duration_s=time.monotonic() - child.started))
                        settle(child.record, message[1])
                    else:
                        failed(child, *message)
                elif not child.proc.is_alive():
                    del running[child.record.index]
                    child.conn.close()
                    failed(child, CRASH, "WorkerCrash", "",
                           f"worker exited with code {child.proc.exitcode} "
                           f"without reporting")
                elif child.deadline is not None and now >= child.deadline:
                    del running[child.record.index]
                    _kill(child)
                    failed(child, TIMEOUT, "WatchdogTimeout", "",
                           f"killed after {now - child.started:.1f}s "
                           f"(deadline {policy.deadline_s:.1f}s)")
    except KeyboardInterrupt:
        for child in running.values():
            _kill(child)
        raise
