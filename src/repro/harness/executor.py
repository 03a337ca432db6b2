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

The two in-process strategies share converged worlds: a kind with a
``world_key`` gets a :class:`WorldSnapshots` store built from the keys of
its pending tasks, so a world that several of them converge identically
is converged once and restored for the rest.  Supervised children never
get one — each attempt is an isolated process building its own world.

Every strategy gives a world the lifetime of its task: the process that
runs the tasks (the caller inline, a pool worker, a supervised child)
runs them through :func:`one_world_at_a_time`, which pauses automatic
cyclic collection and collects the finished task's world before the
next task builds one.

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
import time
import traceback
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.harness.cache import ResultCache, task_key
from repro.harness.digest import payload_digest, stable_seed
from repro.sim.units import SECOND
from repro.topology import resolve_topology_spec

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
    world with ``world_key(spec)``; its ``run`` then also accepts a
    ``snapshots`` store.
    """

    name: str
    run: Callable[..., Any]
    key: Callable[[Any], str]
    encode: Callable[[Any], dict]
    decode: Callable[[dict], Any]
    label: Callable[[Any], str]
    world_key: Optional[Callable[[Any], str]] = None


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
# converged-world snapshots: converge once, run many
# ----------------------------------------------------------------------
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
    """At most one pickled world, for the ``keys`` that occur twice.

    For a key that recurs, the first cold-built ``(world, topo,
    deployment)`` is pickled and each later task of that key gets
    ``pickle.loads`` of it; one blob, the most recent key, is kept (task
    lists are stack-major).  Cold build is the miss path and the
    fallback: if ``dumps`` or ``loads`` raises, the key is dropped, one
    note names the stack and its tasks run cold — a bad snapshot never
    changes a result.
    """

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


# ----------------------------------------------------------------------
# world lifetime: a world lives as long as its task
# ----------------------------------------------------------------------
def one_world_at_a_time(work: Callable[[Any], Any],
                        items: Iterable[Any]) -> list[Any]:
    """``[work(item) for item in items]``, each item's world living
    exactly as long as its task (DESIGN §7 "World lifetime").

    A world is one large web of reference cycles, and nearly the only
    cyclic garbage a run makes, so the automatic collector would only
    re-walk the live world during a run and free a finished one at some
    later full pass.  Here it is paused instead.  One full collection on
    entry frees what an earlier campaign left, so no garbage is frozen;
    what is alive then (imports, registries, the cache) is frozen out of
    every later pass; one collection between items frees the finished
    world.  The collector is left exactly as found, even on an exception
    or Ctrl-C (a caller's own freeze is the caller's to undo).  The
    inline loop, the pool's chunk runner and a supervised attempt all
    run their tasks through here, and nothing else pauses.
    """
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    gc.collect()
    gc.disable()
    if not frozen:
        gc.freeze()
    try:
        outcomes = []
        for i, item in enumerate(items):
            if i:
                gc.collect()  # the world the item before left
            outcomes.append(work(item))
        return outcomes
    finally:
        if not frozen:
            gc.unfreeze()
        if enabled:
            gc.enable()


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
            run, store = kind.run, None
            if kind.world_key is not None:
                # the list, not a flag, decides what is shared: only a
                # world two or more of these tasks converge identically
                # is ever snapshotted
                store = WorldSnapshots(kind.world_key(specs[r.index])
                                       for r in pending)
                run = partial(kind.run, snapshots=store)
            if jobs > 1 and len(pending) > 1:
                _pooled(run, specs, pending, jobs, settle)
            elif pending:
                one_world_at_a_time(
                    lambda record: settle(record, run(specs[record.index])),
                    pending)
            if store is not None:
                report.notes.extend(store.notes)
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
def _run_chunk(run: Callable[[Any], Any], specs: list[Any]) -> list[Any]:
    """Top-level chunk runner (the process pool needs to pickle it).  A
    worker outlives its chunks; the collection on entry frees the world
    of its previous one."""
    return one_world_at_a_time(run, specs)


def _pooled(run, specs, pending: list[TaskRecord], jobs: int,
            settle) -> None:
    """``pending`` in chunks over a process pool, settled as each chunk
    completes; on Ctrl-C, chunks that finished but were not collected
    yet are salvaged before the interrupt propagates."""
    size = default_chunk_size(len(pending), jobs)
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(pending)))
    futures: dict = {}   # uncollected future -> its records
    try:
        for i in range(0, len(pending), size):
            group = pending[i:i + size]
            futures[pool.submit(_run_chunk, run,
                                [specs[r.index] for r in group])] = group
        not_done = set(futures)
        while not_done:
            done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
            for future in done:
                for record, outcome in zip(futures.pop(future),
                                           future.result()):
                    settle(record, outcome)
        pool.shutdown()
    except KeyboardInterrupt:
        for future, group in futures.items():
            if (future.done() and not future.cancelled()
                    and future.exception() is None):
                for record, outcome in zip(group, future.result()):
                    settle(record, outcome)
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
        outcome, = one_world_at_a_time(run, [spec])
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
