"""Determinism property tests for the campaign executor's fan-out.

For a matrix of (stack, topology, seed): the run digest of every
task must be identical across repeated serial runs, across serial vs
forked fan-out execution, and across different child counts.  Any
divergence means a task leaked state (wall clock, globals, unseeded
randomness) and would silently corrupt fanned-out sweeps.  Serial ==
fan-out == supervised == cache replay for every task kind is
``test_executor.py``'s contract test.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.topology.clos import two_pod_params
from repro.harness.executor import (
    CampaignReport,
    DeterminismError,
    TaskKind,
    assert_fanout_deterministic,
    resolve_jobs,
    run_tasks,
)
from repro.scenario import SCENARIO_RUN, SWEEP, TC_SEEDS, run_scenario_task


def _square(x: int) -> int:
    """Trivial task."""
    return x * x


SQUARE = TaskKind(name="square", run=_square, key=str,
                  encode=lambda o: {"v": o}, decode=lambda p: p["v"],
                  label=str)


# ----------------------------------------------------------------------
# sweep fan-out
# ----------------------------------------------------------------------
# the ids these cases had when they ran over the deleted stack enum
@pytest.mark.parametrize("kind,seed", [
    pytest.param("mtp", 0, id="StackKind.MTP-0"),
    pytest.param("mtp", 7, id="StackKind.MTP-7"),
    pytest.param("bgp", 0, id="StackKind.BGP-0"),
])
def test_sweep_digests_serial_vs_parallel(kind, seed):
    specs = SWEEP.expand(two_pod_params(), [kind], seeds=(seed,))[:3]
    serial_a = [run_scenario_task(s) for s in specs]
    serial_b = [run_scenario_task(s) for s in specs]
    assert [o.digest for o in serial_a] == [o.digest for o in serial_b]
    # the guard itself re-runs serially, with 2 children and supervised
    digests = assert_fanout_deterministic(SCENARIO_RUN, specs, jobs=2)
    assert digests == [o.digest for o in serial_a]
    # results (not just digests) also match byte for byte
    assert [o.metrics for o in serial_a] == [o.metrics for o in serial_b]


def test_sweep_digests_across_worker_counts():
    specs = SWEEP.expand(two_pod_params(), ["mtp"])[:4]
    by_jobs = {
        jobs: [o.digest for o in run_tasks(SCENARIO_RUN, specs, jobs=jobs,
                                           allow_oversubscribe=True)]
        for jobs in (1, 2, 3)
    }
    assert by_jobs[1] == by_jobs[2] == by_jobs[3]
    # distinct failure points must not collide
    assert len(set(by_jobs[1])) == len(specs)


# ----------------------------------------------------------------------
# multi-seed experiment batches
# ----------------------------------------------------------------------
@pytest.mark.parametrize("stack", ["mtp", "bgp"])
def test_experiment_batch_digests_deterministic(stack):
    specs = TC_SEEDS.expand(two_pod_params(), [stack], (0, 1))
    digests = assert_fanout_deterministic(SCENARIO_RUN, specs, jobs=2)
    assert len(set(digests)) == 2  # different seeds, different runs


def test_experiment_digest_differs_across_seeds_and_cases():
    def outcome(case, seed):
        return run_scenario_task(TC_SEEDS.expand(
            two_pod_params(), ["mtp"], (seed,), case=(case,))[0])

    base = outcome("TC1", 0)
    assert base.digest == outcome("TC1", 0).digest
    assert base.digest != outcome("TC1", 1).digest
    assert base.digest != outcome("TC2", 0).digest


# ----------------------------------------------------------------------
# executor mechanics
# ----------------------------------------------------------------------
def test_execute_tasks_preserves_order():
    specs = SWEEP.expand(two_pod_params(), ["mtp"])[:4]
    outcomes = run_tasks(SCENARIO_RUN, specs, jobs=2,
                         allow_oversubscribe=True)
    assert ([o.metrics.scenario for o in outcomes]
            == [s.scenario.name for s in specs])


def test_guard_raises_on_divergence():
    digests = iter("aaab")  # serial: a,a — parallel: a,b
    flaky = TaskKind(name="flaky",
                     run=lambda _spec: SimpleNamespace(digest=next(digests)),
                     key=str, encode=vars, decode=dict, label=str)
    with pytest.raises(DeterminismError):
        # jobs=1 keeps the "parallel" leg inline too, so the fake digest
        # sequence above is consumed deterministically
        assert_fanout_deterministic(flaky, [1, 2], jobs=1)


def test_resolve_jobs_and_chunking():
    """``--jobs`` normalizing; children are forked one task at a time,
    so there are no chunks to size."""
    assert resolve_jobs(3) == 3
    assert resolve_jobs(None) >= 1
    assert resolve_jobs(0) >= 1
    with pytest.raises(ValueError):
        resolve_jobs(-1)


# ----------------------------------------------------------------------
# oversubscription clamp: at most one child per core (the parent only
# waits in select); a child more would only share a core — the executor
# must quietly run fewer and say so in the report
# ----------------------------------------------------------------------
def test_oversubscribed_fanout_falls_back_to_serial(monkeypatch):
    monkeypatch.setattr("repro.harness.executor.os.cpu_count", lambda: 1)
    report = CampaignReport()
    outcomes = run_tasks(SQUARE, [1, 2, 3], jobs=2, report=report)
    assert outcomes == [1, 4, 9]
    assert report.jobs == 1  # fell back
    assert any("oversubscribe" in note for note in report.notes), report.notes


def test_fanout_keeps_pool_when_cores_are_spare(monkeypatch):
    monkeypatch.setattr("repro.harness.executor.os.cpu_count", lambda: 8)
    report = CampaignReport()
    outcomes = run_tasks(SQUARE, [1, 2, 3], jobs=2, report=report)
    assert outcomes == [1, 4, 9]
    assert report.jobs == 2
    assert report.notes == []
    # one child per core: two cores keep two jobs, and clamp three to two
    monkeypatch.setattr("repro.harness.executor.os.cpu_count", lambda: 2)
    for jobs, notes in ((2, []), (3, ["clamped to 2 job(s): 3 jobs would "
                                      "oversubscribe 2 core(s)"])):
        report = CampaignReport()
        assert run_tasks(SQUARE, [1, 2, 3], jobs=jobs,
                         report=report) == [1, 4, 9]
        assert (report.jobs, report.notes) == (2, notes)


def test_allow_oversubscribe_forces_the_pool(monkeypatch):
    """The determinism guard compares fan-out with serial, so it must be
    able to force two children even on a 1-core CI host."""
    monkeypatch.setattr("repro.harness.executor.os.cpu_count", lambda: 1)
    report = CampaignReport()
    outcomes = run_tasks(SQUARE, [1, 2, 3], jobs=2, report=report,
                         allow_oversubscribe=True)
    assert outcomes == [1, 4, 9]
    assert report.jobs == 2  # two children despite the 1-core host
    assert report.notes == []


def test_oversubscribed_fallback_is_result_identical(monkeypatch):
    """Falling back must be invisible in the results: same outcomes, in
    order, as two children would have produced."""
    monkeypatch.setattr("repro.harness.executor.os.cpu_count", lambda: 1)
    serial = run_tasks(SQUARE, list(range(7)), jobs=2)
    forced = run_tasks(SQUARE, list(range(7)), jobs=2,
                       allow_oversubscribe=True)
    assert serial == forced
