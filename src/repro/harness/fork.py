"""The campaign's one process primitive: a forked child reporting through
a pipe (DESIGN §7 "Converged worlds, forked").

:func:`fork_task` forks a child that runs ``run(*args)`` on whatever this
process holds — a converged world included, copy-on-write, never
pickled — and pickles back ``(OK, outcome)`` or ``(ERROR, exception or
None, traceback text, class name, first line)``.  :func:`wait_any`
reads every readable pipe of a set of children and reaps those at EOF;
:func:`kill_and_reap` ends the rest.  The scheduler in
:mod:`repro.harness.executor` is built on these three, and so are the
fluid engine's hashing helpers, which may use the cores the scheduler
leaves idle (:func:`spare_width`).
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import sys
import threading
import traceback
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional, Sequence

OK = "ok"
ERROR = "error"

#: how many tasks the running scheduler keeps alive at once (one outside
#: any scheduler); a forked task inherits the value
_jobs = 1


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
        return type(self), (self.label, self.status)


class ChildTraceback(Exception):
    """The traceback of an exception a forked task raised, as text: the
    ``__cause__`` of the exception re-raised in the parent."""

    def __str__(self) -> str:
        return self.args[0]


class NoFork(Exception):
    """This process cannot fork a task; the reason is the message."""


@dataclass
class Child:
    """A forked task: its pipe's bytes so far, then its wait status."""

    pid: int
    fd: int
    index: int = 0               # the task's position in the task list
    attempt: int = 1
    started: float = 0.0
    deadline: Optional[float] = None
    blob: bytearray = field(default_factory=bytearray)
    status: int = 0


def _child(run: Callable[..., Any], args: tuple, write_fd: int) -> None:
    """The forked side: run the task, pickle its outcome or what it
    raised into the pipe, flush what the task printed and leave with
    ``os._exit`` — never back through the parent's frames or buffers."""
    code = 1
    try:
        try:
            blob = pickle.dumps((OK, run(*args)), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # noqa: BLE001 — reported, not lost
            lines = str(exc).splitlines()
            report = [ERROR, exc, "".join(traceback.format_exception(exc)),
                      type(exc).__name__, lines[0][:200] if lines else ""]
            try:
                blob = pickle.dumps(report, pickle.HIGHEST_PROTOCOL)
                pickle.loads(blob)
            except Exception:  # noqa: BLE001 — the text still travels
                report[1] = None
                blob = pickle.dumps(report, pickle.HIGHEST_PROTOCOL)
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(blob)
        sys.stdout.flush()
        sys.stderr.flush()
        code = 0
    finally:
        os._exit(code)


def fork_task(children: dict[int, Child], run: Callable[..., Any],
              args: tuple, **fields: Any) -> None:
    """Fork a child running ``run(*args)`` into ``children`` (keyed by
    its pipe's read end, ``fields`` filling the rest of its
    :class:`Child`), or raise :class:`NoFork`.

    Stdio is flushed first, so nothing the parent wrote appears twice.
    The child runs with SIGINT blocked — Ctrl-C is the parent's — and so
    does this process until the child is in ``children``, where cleanup
    finds it.  Only Python threads stop a fork: numpy's BLAS pool is an
    idle OS thread with its own fork handlers."""
    if not hasattr(os, "fork"):
        raise NoFork("os.fork is missing")
    if threading.active_count() > 1:
        raise NoFork(f"{threading.active_count()} threads are running")
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
        raise NoFork(f"os.fork failed: {exc}") from None
    if pid == 0:
        os.close(read_fd)
        _child(run, args, write_fd)  # never returns
    os.close(write_fd)
    children[read_fd] = Child(pid, read_fd, **fields)
    signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def wait_any(children: dict[int, Child],
             timeout: Optional[float]) -> list[Child]:
    """Read whatever the children's pipes hold, waiting up to ``timeout``
    seconds (None: for ever) for any; returns those at EOF, reaped and
    out of ``children``.  Every readable pipe is drained as it fills, so
    no child blocks on a full pipe, however large its report."""
    ended = []
    for fd in select.select(list(children), [], [], timeout)[0]:
        child = children[fd]
        chunk = os.read(fd, 1 << 20)
        if chunk:
            child.blob += chunk
            continue
        del children[fd]
        os.close(fd)
        child.status = os.waitpid(child.pid, 0)[1]
        ended.append(child)
    return ended


def kill_and_reap(children: Sequence[Child]) -> None:
    """SIGKILL each child and wait for it, with Ctrl-C held off so a
    second one cannot leave a zombie."""
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        for child in children:
            try:
                os.kill(child.pid, signal.SIGKILL)
                os.waitpid(child.pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass  # already reaped
            os.close(child.fd)
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


@contextmanager
def sharing_cores(jobs: int) -> Iterator[None]:
    """While a scheduler keeps up to ``jobs`` tasks alive, each task's
    :func:`spare_width` is its share of the cores."""
    global _jobs
    outer, _jobs = _jobs, max(1, jobs)
    try:
        yield
    finally:
        _jobs = outer


def spare_width() -> int:
    """How many processes one task may keep busy: the cores this process
    may run on, divided among the scheduler's jobs — every core for a
    lone task, one each when the jobs already fill them."""
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    return max(1, cores // _jobs)
