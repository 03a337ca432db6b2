"""The fork path's contract (DESIGN §7 "Converged worlds, forked").

A task forked from a converged world must be indistinguishable from the
same task run cold in this process — in outcome and run digest — and
from the caller's side it must behave like a call: its exception
arrives with its own type, a child that dies says so by name, Ctrl-C
leaves no child behind, and stdout is never written twice.
"""

from __future__ import annotations

import os
import pickle
import signal
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest

from repro.harness import fork
from repro.harness.executor import (
    CampaignReport,
    ForkedTaskDied,
    RetryPolicy,
    TaskKind,
    run_tasks,
)
from repro.scenario import (
    SCENARIO_RUN,
    canonical_scenarios,
    encode_scenario_outcome,
    run_scenario_task,
    scenario_suite_specs,
)
from repro.topology.clos import two_pod_params

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.mark.parametrize("stack", ["mtp", "bgp-bfd"])
def test_forked_runs_equal_cold_runs(stack):
    """The library on one stack: twelve tasks forked from one world and
    the last run on it give exactly the payloads and digests of thirteen
    cold runs."""
    specs = scenario_suite_specs(two_pod_params(),
                                 list(canonical_scenarios().values()),
                                 [stack])
    report = CampaignReport()
    shared = run_tasks(SCENARIO_RUN, specs, report=report)
    cold = [run_scenario_task(spec) for spec in specs]
    assert ([encode_scenario_outcome(o) for o in shared]
            == [encode_scenario_outcome(o) for o in cold])
    assert report.notes == []


# ----------------------------------------------------------------------
# a forked task behaves like a call
# ----------------------------------------------------------------------
class Unpicklable(Exception):
    """An exception that pickles but cannot be rebuilt from its args."""

    def __init__(self, code, why):
        super().__init__(f"{code}: {why}")


def _task(spec, world):
    """Tasks that share one world; what each does is its name."""
    if spec == "raise":
        raise LookupError("no such route")
    if spec == "unpicklable":
        raise Unpicklable(7, "odd args")
    if spec == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    return spec, os.getpid()


def _one_world(spec) -> str:
    return "one"


KIND = TaskKind(name="fork-contract", run=_task, key=str, encode=list,
                decode=tuple, label=str, world_key=_one_world, converge=list)


def test_tasks_run_in_a_child_but_the_last():
    outcomes = run_tasks(KIND, ["a", "b", "c"])
    assert [spec for spec, _pid in outcomes] == ["a", "b", "c"]
    pids = [pid for _spec, pid in outcomes]
    assert pids[-1] == os.getpid() and os.getpid() not in pids[:-1]


def _width(spec) -> int:
    return fork.spare_width()


WIDTH_KIND = TaskKind(name="fork-width", run=_width, key=str, encode=list,
                      decode=tuple, label=str)


def test_a_task_may_use_its_share_of_the_cores():
    """``spare_width`` is every core outside a scheduler and for a lone
    job, and a ``1/jobs`` share (never 0) while ``jobs`` tasks run."""
    cores = len(os.sched_getaffinity(0))
    assert fork.spare_width() == cores
    assert run_tasks(WIDTH_KIND, ["a", "b"]) == [cores, cores]
    assert run_tasks(WIDTH_KIND, ["a", "b", "c"], jobs=2,
                     allow_oversubscribe=True) == [max(1, cores // 2)] * 3
    with fork.sharing_cores(cores + 1):
        assert fork.spare_width() == 1
    assert fork.spare_width() == cores


def test_a_forked_task_exception_keeps_its_type():
    with pytest.raises(LookupError, match="no such route") as caught:
        run_tasks(KIND, ["raise", "b"])
    assert "_task" in str(caught.value.__cause__)  # the child's traceback


def test_an_exception_that_cannot_be_pickled_arrives_as_text():
    with pytest.raises(RuntimeError, match="cannot be pickled") as caught:
        run_tasks(KIND, ["unpicklable", "b"])
    assert "Unpicklable: 7: odd args" in str(caught.value)


def test_a_killed_child_raises_the_typed_error():
    with pytest.raises(ForkedTaskDied, match="die.*signal 9") as caught:
        run_tasks(KIND, ["die", "b"])
    assert (caught.value.label, caught.value.exitcode) == ("die", -9)
    # it pickles like any exception
    assert str(pickle.loads(pickle.dumps(caught.value))) == str(caught.value)


def test_no_warning_is_recorded():
    """CPython 3.12 warns on every fork of a process with a second OS
    thread, which numpy's BLAS pool is; the executor forks only with one
    Python thread, and records nothing."""
    import numpy  # noqa: F401 — the thread the warning would count

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert [s for s, _ in run_tasks(KIND, ["a", "b"])] == ["a", "b"]
    assert [str(w.message) for w in caught] == []


def _python(script: str, timeout: float = 120) -> str:
    """Run ``script`` in a fresh interpreter (so no other test's child
    is around) and return its stdout, which is a pipe: block-buffered."""
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)], cwd=SRC,
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
        text=True, timeout=timeout)
    assert done.returncode == 0, done.stderr
    return done.stdout


_KIND_SOURCE = """
    import os, signal, sys, time
    from repro.harness.executor import (CampaignInterrupted, TaskKind,
                                        run_tasks)

    def task(spec, world):
        if spec == "sleep":
            time.sleep(60)
        print(f"task {spec}")
        return spec

    KIND = TaskKind(name="k", run=task, key=str, encode=list, decode=str,
                    label=str, world_key=lambda spec: "one", converge=list)
"""


def test_ctrl_c_kills_and_reaps_the_child():
    out = _python(_KIND_SOURCE + """
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, 0.5)
    try:
        run_tasks(KIND, ["sleep", "last"])
    except CampaignInterrupted:
        print("interrupted")
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print("no child left")
    """)
    assert out.splitlines() == ["interrupted", "no child left"]


def test_unflushed_stdout_appears_once():
    out = _python(_KIND_SOURCE + """
    sys.stdout.write("before\\n")   # still in the buffer at the fork
    assert run_tasks(KIND, ["a", "b", "c"]) == ["a", "b", "c"]
    print("after")
    """)
    assert out.splitlines() == ["before", "task a", "task b", "task c",
                                "after"]


# ----------------------------------------------------------------------
# no fork at all: the fan-out runs serially here, with one note
# ----------------------------------------------------------------------
def test_pool_workers_that_cannot_fork_report_it(monkeypatch):
    """``os.fork`` failing under a ``--jobs 2`` campaign (the fan-out
    forks from this process): every task runs here, the digests are the
    serial run's, and one note reaches the report."""
    scenarios = [canonical_scenarios()[n] for n in
                 ("tc1", "tc2", "tc3", "tc4", "flap-storm", "drain",
                  "double-cut", "lossy-spine")]
    specs = scenario_suite_specs(two_pod_params(), scenarios,
                                 ["mtp", "bgp-bfd"])
    inline = [o.digest for o in run_tasks(SCENARIO_RUN, specs)]

    def no_fork():
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    report = CampaignReport()
    fanned = run_tasks(SCENARIO_RUN, specs, jobs=2, allow_oversubscribe=True,
                       report=report)
    assert [o.digest for o in fanned] == inline
    assert len(report.notes) == 1, report.notes
    assert "fork unavailable" in report.notes[0]


# ----------------------------------------------------------------------
# concurrent children: big reports, Ctrl-C, worlds never pickled
# ----------------------------------------------------------------------
_BIG = 3 << 20   # bytes: far past a pipe's buffer


def test_a_big_outcome_neither_deadlocks_nor_truncates():
    """With two children alive, one reporting 3 MiB: the parent reads
    every readable pipe as it fills, so neither child blocks on a full
    pipe and the report arrives whole.  (A fresh interpreter with a
    timeout, so a deadlock fails the test instead of hanging it.)"""
    out = _python(_KIND_SOURCE + f"""
    def big(spec, world):
        return spec * {_BIG} if spec == "x" else task(spec, world)

    BIG = TaskKind(name="big", run=big, key=str, encode=list, decode=str,
                   label=str, world_key=lambda spec: "one", converge=list)
    outcomes = run_tasks(BIG, ["x", "a", "x", "b"], jobs=2,
                         allow_oversubscribe=True)
    print([len(o) for o in outcomes])
    """, timeout=60)
    assert out.splitlines()[-1] == str([_BIG, 1, _BIG, 1])


def test_ctrl_c_kills_and_reaps_every_live_child(tmp_path):
    """Ctrl-C with two children asleep: both are killed and reaped, and
    the two tasks that finished before stay checkpointed."""
    out = _python(_KIND_SOURCE + f"""
    from repro.harness.cache import ResultCache

    def napping(spec, world):
        if spec.startswith("sleep"):
            with open(os.path.join({str(tmp_path)!r}, spec), "w") as fh:
                fh.write(str(os.getpid()))
            time.sleep(60)
        return spec

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    NAP = TaskKind(name="nap", run=napping, key=str,
                   encode=lambda o: {{"v": o}}, decode=lambda p: p["v"],
                   label=str, world_key=lambda spec: "one", converge=list)
    cache = ResultCache({str(tmp_path / "cache")!r})
    signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        run_tasks(NAP, ["a", "b", "sleep1", "sleep2", "c"], jobs=2,
                  allow_oversubscribe=True, cache=cache)
    except CampaignInterrupted as exc:
        print("interrupted", exc.done, exc.salvaged)
    print("cached", [s for s in "abc" if cache.get(s) is not None])
    for name in ("sleep1", "sleep2"):
        pid = int(open(os.path.join({str(tmp_path)!r}, name)).read())
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            print(name, "gone")
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print("no child left")
    """)
    assert out.splitlines()[-5:] == [
        "interrupted 2 2", "cached ['a', 'b']", "sleep1 gone", "sleep2 gone",
        "no child left"]


def test_no_campaign_pickles_a_world(monkeypatch):
    """A world reaches a child by fork, never by pickle: with pickling a
    ``World`` made to raise, a ``--jobs 2`` campaign and a supervised
    tc1..tc4 campaign give the serial digests."""
    from repro.net.world import World

    specs = scenario_suite_specs(
        two_pod_params(), [canonical_scenarios()[n] for n in
                           ("tc1", "tc2", "tc3", "tc4")], ["bgp-bfd"])
    serial = [o.digest for o in run_tasks(SCENARIO_RUN, specs)]

    def refuse(self, protocol):
        raise TypeError("a World was pickled")

    monkeypatch.setattr(World, "__reduce_ex__", refuse, raising=False)
    with pytest.raises(TypeError, match="was pickled"):
        pickle.dumps(World(seed=0))
    for policy in (None, RetryPolicy(max_attempts=1)):
        report = CampaignReport()
        fanned = run_tasks(SCENARIO_RUN, specs, jobs=2, policy=policy,
                           allow_oversubscribe=True, report=report)
        assert [o.digest for o in fanned] == serial
        assert report.quarantined == []
