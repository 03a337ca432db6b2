"""Fault-injection tests for the executor's supervised mode.

Every hazard the supervisor exists for is injected deliberately: a task
that raises, a task that raises the *same* way twice (deterministic bug
— quarantined without a third attempt), a task that sleeps past its
deadline (killed by the watchdog, not awaited), a worker that dies
without reporting, a flaky task that succeeds on retry, and a campaign
interrupted mid-flight that must resume from its checkpoints.  A
Hypothesis property pins down the seeded backoff schedule: a pure
function of (policy seed, task key, attempt), bounded by the cap.
"""

from __future__ import annotations

import os
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.harness.cache import ResultCache
from repro.harness.convergence import QuiescenceTimeout, converge_from_cold
from repro.stacks import mtp
from repro.harness.executor import (
    CACHED,
    CRASH,
    DONE,
    ERROR,
    OK,
    QUARANTINED,
    TIMEOUT,
    Attempt,
    CampaignInterrupted,
    CampaignReport,
    RetryPolicy,
    TaskKind,
    TaskRecord,
    backoff_schedule,
    run_tasks,
)
from repro.harness.report import quarantine_rows, render_quarantine_table
from repro.net.world import World
from repro.sim.units import SECOND
from repro.topology.clos import build_folded_clos, two_pod_params


# ----------------------------------------------------------------------
# injected-fault workers (each misbehaves only for its trigger spec; a
# supervised attempt is a forked child, so ``os._exit`` ends only it)
# ----------------------------------------------------------------------
def ok_worker(spec):
    return f"done-{spec}"


def boom_worker(spec):
    if spec == "bad":
        raise ValueError("injected deterministic failure")
    return f"done-{spec}"


def hang_worker(spec):
    if spec == "hang":
        time.sleep(60)
    return f"done-{spec}"


def crash_worker(spec):
    if spec == "crash":
        os._exit(9)
    return f"done-{spec}"


def flaky_worker(spec):
    """Fails once, then succeeds: the marker file is the cross-process
    memory of the first (failed) attempt."""
    marker, value = spec
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise RuntimeError("injected transient failure")
    return f"done-{value}"


def interrupting_worker(spec):
    if spec == "stop":
        raise KeyboardInterrupt
    return f"done-{spec}"


def _key(spec):
    return f"key-{spec}"


def _encode(outcome):
    return {"value": outcome}


def _decode(payload):
    return payload["value"]


def _kind(worker) -> TaskKind:
    return TaskKind(name=worker.__name__, run=worker, key=_key,
                    encode=_encode, decode=_decode, label=str)


def supervise(specs, worker, *, policy=None, **kwargs):
    """``run_tasks`` in the supervised mode (a default policy)."""
    return run_tasks(_kind(worker), specs, policy=policy or RetryPolicy(),
                     **kwargs)


# ----------------------------------------------------------------------
# the happy path and the state machine
# ----------------------------------------------------------------------
def test_all_ok_tasks_done_in_order():
    report = CampaignReport()
    results = supervise(["a", "b", "c"], ok_worker, jobs=2, report=report)
    assert results == ["done-a", "done-b", "done-c"]
    assert [r.state for r in report.records] == [DONE] * 3
    assert all(len(r.attempts) == 1 and r.attempts[0].outcome == OK
               for r in report.records)
    assert report.quarantined == [] and report.retried == []


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(deadline_s=0.0)


# ----------------------------------------------------------------------
# injected faults
# ----------------------------------------------------------------------
def test_deterministic_failure_quarantined_without_third_attempt():
    report = CampaignReport()
    policy = RetryPolicy(max_attempts=5, backoff_base_s=0.01,
                         backoff_cap_s=0.02)
    results = supervise(["a", "bad", "c"], boom_worker, policy=policy,
                        report=report)
    # the grid degrades, it does not abort
    assert results == ["done-a", None, "done-c"]
    bad = report.records[1]
    assert bad.state == QUARANTINED
    # identical ValueError twice => no third attempt despite max_attempts=5
    assert len(bad.attempts) == 2
    assert all(a.outcome == ERROR and a.exception == "ValueError"
               for a in bad.attempts)
    assert bad.attempts[0].traceback_digest == bad.attempts[1].traceback_digest
    assert "deterministic failure" in bad.quarantine_reason
    assert bad.failure_class == "ValueError"


def test_hung_worker_killed_by_watchdog():
    report = CampaignReport()
    policy = RetryPolicy(deadline_s=0.3, max_attempts=2,
                         backoff_base_s=0.01, backoff_cap_s=0.02)
    t0 = time.monotonic()
    results = supervise(["a", "hang"], hang_worker, jobs=2, policy=policy,
                        report=report)
    wall = time.monotonic() - t0
    assert results == ["done-a", None]
    hung = report.records[1]
    assert hung.state == QUARANTINED
    assert [a.outcome for a in hung.attempts] == [TIMEOUT, TIMEOUT]
    assert all(a.exception == "WatchdogTimeout" for a in hung.attempts)
    assert "exhausted 2 attempt(s)" in hung.quarantine_reason
    # killed, not awaited: two 0.3 s deadlines, not two 60 s sleeps
    assert wall < 10.0


def test_dead_worker_recorded_as_crash():
    report = CampaignReport()
    policy = RetryPolicy(max_attempts=2, backoff_base_s=0.01,
                         backoff_cap_s=0.02)
    results = supervise(["crash", "b"], crash_worker, policy=policy,
                        report=report)
    assert results == [None, "done-b"]
    dead = report.records[0]
    assert dead.state == QUARANTINED
    assert [a.outcome for a in dead.attempts] == [CRASH, CRASH]
    assert dead.failure_class == "WorkerCrash"
    assert "code 9" in dead.attempts[0].detail


def test_flaky_task_retries_then_succeeds(tmp_path):
    report = CampaignReport()
    policy = RetryPolicy(max_attempts=3, backoff_base_s=0.01,
                         backoff_cap_s=0.02)
    marker = str(tmp_path / "attempted")
    results = supervise([(marker, "x")], flaky_worker, policy=policy,
                        report=report)
    assert results == ["done-x"]
    record = report.records[0]
    assert record.state == DONE
    assert [a.outcome for a in record.attempts] == [ERROR, OK]
    assert len(record.backoff_s) == 1
    assert report.retried == [record]


def _converge(spec):
    """A shared world; the ``bad`` group's never converges."""
    if spec.startswith("bad"):
        raise ValueError("injected converge failure")
    return []


def _on_world(spec, world=None):
    if world is None:
        world = _converge(spec)
    return f"done-{spec}"


def test_a_world_that_fails_to_converge_quarantines_only_its_tasks():
    """The campaign's process converges a shared world; if that raises,
    each of the group's tasks converges in its own child instead, where
    the failure is an attempt like any other: retried, then quarantined
    as deterministic, while the other world's tasks finish."""
    kind = TaskKind(name="converge", run=_on_world, key=_key,
                    encode=_encode, decode=_decode, label=str,
                    world_key=lambda spec: spec[:3], converge=_converge)
    report = CampaignReport()
    policy = RetryPolicy(max_attempts=3, backoff_base_s=0.01,
                         backoff_cap_s=0.02)
    results = run_tasks(kind, ["ok-1", "bad-1", "bad-2", "ok-2"], jobs=2,
                        policy=policy, report=report)
    assert results == ["done-ok-1", None, None, "done-ok-2"]
    assert [r.state for r in report.records] == [
        DONE, QUARANTINED, QUARANTINED, DONE]
    for record in report.quarantined:
        assert [a.exception for a in record.attempts] == ["ValueError"] * 2
        assert "deterministic failure" in record.quarantine_reason


# ----------------------------------------------------------------------
# checkpoint / resume
# ----------------------------------------------------------------------
def test_completed_tasks_checkpoint_and_replay(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    supervise(["a", "b"], ok_worker, cache=cache)
    assert [_key(s) in cache for s in "abcd"] == [True, True, False, False]

    report = CampaignReport()
    results = supervise(["a", "b", "c", "d"], ok_worker, cache=cache,
                        report=report)
    assert results == ["done-a", "done-b", "done-c", "done-d"]
    assert [r.state for r in report.records] == [CACHED, CACHED, DONE, DONE]
    assert report.cached == 2 and report.executed == 2


def test_quarantined_tasks_are_not_checkpointed(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    policy = RetryPolicy(max_attempts=2, backoff_base_s=0.01,
                         backoff_cap_s=0.02)
    supervise(["a", "bad"], boom_worker, policy=policy, cache=cache)
    assert _key("a") in cache
    assert _key("bad") not in cache  # a rerun must attempt it again


def test_cache_requires_codec(tmp_path):
    """A supervised child's result reaches the cache through the kind's
    codec, and comes back out of it the same way."""
    cache = ResultCache(tmp_path / "cache")
    supervise(["a"], ok_worker, cache=cache)
    assert cache.get(_key("a")) == _encode("done-a")
    report = CampaignReport()
    assert supervise(["a"], ok_worker, cache=cache,
                     report=report) == ["done-a"]
    assert [r.state for r in report.records] == [CACHED]


def test_interrupts_are_keyboard_interrupts():
    # `except KeyboardInterrupt` in callers keeps catching Ctrl-C
    assert issubclass(CampaignInterrupted, KeyboardInterrupt)


def test_execute_tasks_salvages_on_interrupt(tmp_path):
    """A Ctrl-C mid-grid checkpoints everything already finished and
    reports the salvage accounting on the exception."""
    cache = ResultCache(tmp_path / "cache")
    with pytest.raises(CampaignInterrupted) as exc_info:
        run_tasks(_kind(interrupting_worker), ["a", "stop", "c"],
                  cache=cache)
    exc = exc_info.value
    assert (exc.done, exc.total, exc.salvaged) == (1, 3, 1)
    assert _key("a") in cache
    # the resumed run replays the salvaged task and finishes the rest
    results = run_tasks(_kind(ok_worker), ["a", "b", "c"], cache=cache)
    assert results == ["done-a", "done-b", "done-c"]


# ----------------------------------------------------------------------
# seeded backoff: deterministic per (seed, key), bounded by the cap
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31),
       key=st.text(min_size=1, max_size=40),
       max_attempts=st.integers(min_value=1, max_value=6))
def test_backoff_schedule_is_deterministic_per_key(seed, key, max_attempts):
    policy = RetryPolicy(max_attempts=max_attempts, seed=seed)
    first = backoff_schedule(policy, key)
    assert first == backoff_schedule(policy, key)  # pure function
    assert len(first) == max_attempts - 1
    for attempt, delay in enumerate(first, start=1):
        cap = min(policy.backoff_cap_s,
                  policy.backoff_base_s * (2 ** (attempt - 1)))
        assert cap / 2 <= delay <= cap  # jitter stays inside [cap/2, cap]


def test_backoff_decorrelated_across_keys():
    policy = RetryPolicy(max_attempts=4)
    assert backoff_schedule(policy, "task-a") != backoff_schedule(
        policy, "task-b")
    # a different policy seed reshuffles the same key's schedule
    assert backoff_schedule(policy, "task-a") != backoff_schedule(
        RetryPolicy(max_attempts=4, seed=1), "task-a")


# ----------------------------------------------------------------------
# typed quiescence timeout (satellite)
# ----------------------------------------------------------------------
def test_quiescence_timeout_carries_diagnostics():
    world = World(seed=0)

    def never():
        return False

    with pytest.raises(QuiescenceTimeout) as exc_info:
        converge_from_cold(world, None, never, max_time_us=1000)
    exc = exc_info.value
    assert isinstance(exc, TimeoutError)  # old `except TimeoutError` holds
    assert exc.sim_time_us == 1000
    assert exc.pending_events == 0
    assert "pending timer(s)" in str(exc)


def test_a_silent_unconverged_fabric_fails_at_once():
    """A converged MR-MTP fabric schedules nothing; if ``check()`` is
    still false then, no amount of simulated time can change it."""
    world = World(seed=0)
    topo = build_folded_clos(two_pod_params(), world=world)
    deployment = mtp.deploy(topo)
    deployment.start()

    def never_ready():
        return False

    with pytest.raises(QuiescenceTimeout, match="never_ready") as exc_info:
        converge_from_cold(world, deployment, never_ready,
                           max_time_us=60 * SECOND)
    assert deployment.trees_complete()
    assert exc_info.value.pending_events == 0
    assert exc_info.value.sim_time_us < SECOND


# ----------------------------------------------------------------------
# quarantine table (satellite)
# ----------------------------------------------------------------------
def _quarantined_record():
    record = TaskRecord(index=1, key="abcdef0123456789", label="mtp T-1:eth1")
    record.state = QUARANTINED
    record.attempts = [
        Attempt(number=1, outcome=ERROR, duration_s=0.1,
                exception="ValueError", traceback_digest="d1"),
        Attempt(number=2, outcome=ERROR, duration_s=0.1,
                exception="ValueError", traceback_digest="d1"),
    ]
    record.quarantine_reason = "deterministic failure: ValueError twice"
    return record


def test_quarantine_table_lists_only_quarantined_tasks():
    done = TaskRecord(index=0, key="k0", label="ok task", state=DONE)
    rows = quarantine_rows([done, _quarantined_record()])
    assert len(rows) == 1
    label, key, attempts, failure_class, reason = rows[0]
    assert label == "mtp T-1:eth1"
    assert key == "abcdef012345"  # truncated content hash
    assert attempts == "2" and failure_class == "ValueError"
    assert "deterministic" in reason

    text = render_quarantine_table([done, _quarantined_record()])
    assert "quarantined tasks" in text and "ValueError" in text
    assert render_quarantine_table([done]) == ""


def test_supervisor_clamps_oversubscribed_concurrency(monkeypatch):
    """jobs=2 on a 1-core host: concurrency clamps to 1 (children are
    still forked per attempt so the watchdog keeps working) and the
    report says why."""
    monkeypatch.setattr("repro.harness.executor.os.cpu_count", lambda: 1)
    report = CampaignReport()
    results = supervise(["a", "b"], ok_worker, jobs=2,
                        policy=RetryPolicy(max_attempts=1), report=report)
    assert results == ["done-a", "done-b"]
    assert report.jobs == 1
    assert any("oversubscribe" in note for note in report.notes)
    assert all(r.state == DONE for r in report.records)
