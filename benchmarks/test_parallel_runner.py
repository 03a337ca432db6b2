"""Extension — parallel experiment runner: correctness and wall clock.

The acceptance bar for the fan-out subsystem: the 2-PoD robustness sweep
with ``jobs=4`` must produce *byte-identical* sweep rows, summaries and
per-point run digests to the serial path, and the measured wall-clock
numbers (serial, fanned-out, cache replay) are persisted to
``benchmarks/results/ext_parallel_runner.txt``.  On a single-core
container the fan-out is clamped to one child at a time — the recorded
speedup then comes from the result cache, which replays converged points
in milliseconds; on multi-core hardware it runs one child per core.
"""

from __future__ import annotations

import os
import time

from repro.topology.clos import two_pod_params
from repro.harness.cache import ResultCache
from repro.harness.executor import CampaignReport, run_tasks
from repro.scenario import SCENARIO_RUN, SWEEP
from repro.scenario.family import Tally

from conftest import emit


SPECS = SWEEP.expand(two_pod_params(), ["mtp"])


def _results(outcomes):
    return SWEEP.rows(SPECS, outcomes)


def summarize(rows):
    return "\n".join(SWEEP.head(rows, Tally([], "", 0.0)))


def _timed_sweep(jobs, cache=None, report=None):
    t0 = time.perf_counter()
    specs = SWEEP.expand(two_pod_params(), ["mtp"])
    outcomes = run_tasks(SCENARIO_RUN, specs, jobs=jobs, cache=cache,
                         report=report)
    return outcomes, time.perf_counter() - t0


def test_ext_parallel_sweep_identical_and_timed(benchmark, results_dir,
                                                tmp_path):
    def run_all():
        serial, t_serial = _timed_sweep(jobs=1)
        fanned, t_fanned = _timed_sweep(jobs=4)
        cache = ResultCache(tmp_path / "cache")
        _timed_sweep(jobs=4, cache=cache)  # populate
        replay_report = CampaignReport()
        replayed, t_replay = _timed_sweep(jobs=4, cache=cache,
                                          report=replay_report)
        return (serial, t_serial, fanned, t_fanned, replayed, t_replay,
                replay_report)

    (serial, t_serial, fanned, t_fanned, replayed, t_replay,
     replay_report) = benchmark.pedantic(run_all, rounds=1, iterations=1)

    # byte-identical results and digests across all three paths
    assert summarize(_results(serial)) == summarize(_results(fanned)) \
        == summarize(_results(replayed))
    assert [o.digest for o in serial] == [o.digest for o in fanned] \
        == [o.digest for o in replayed]
    assert _results(serial) == _results(fanned)
    assert replay_report.cached == len(serial)
    # the cache replay is the guaranteed-everywhere speedup
    assert t_replay < t_serial

    rows = [
        ["serial (jobs=1)", f"{t_serial:.2f}", "1.00x"],
        ["fan-out (jobs=4)", f"{t_fanned:.2f}",
         f"{t_serial / t_fanned:.2f}x"],
        ["cache replay (jobs=4)", f"{t_replay:.2f}",
         f"{t_serial / t_replay:.2f}x"],
    ]
    emit(results_dir, "ext_parallel_runner",
         "Extension — 2-PoD MR-MTP robustness sweep, 32 points",
         ["path", "wall clock (s)", "speedup"], rows,
         note=f"host cores: {os.cpu_count()}; digests byte-identical "
              f"across all paths")
