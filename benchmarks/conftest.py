"""Shared helpers for the figure-regeneration benchmarks.

Each ``test_fig*.py`` / ``test_listing*.py`` file regenerates one table
or figure from the paper's evaluation (section VII): it runs the full
experiment inside the benchmark, prints the paper-style rows, persists
them under ``benchmarks/results/`` and asserts the paper's qualitative
*shape* (who wins, by roughly what factor, where the crossovers are).
Absolute numbers differ from the paper — their substrate was the FABRIC
testbed, ours is a deterministic simulator — as documented in
EXPERIMENTS.md.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.harness.executor import run_tasks
from repro.harness.report import render_table, save_result
from repro.scenario import LOSS, SCENARIO_RUN

RESULTS_DIR = Path(__file__).parent / "results"

# The paper's three stacks and four failure points.
ALL_CASES = ("TC1", "TC2", "TC3", "TC4")


@pytest.fixture(scope="session")
def results_dir() -> Path:
    return RESULTS_DIR


@pytest.fixture(scope="session")
def jobs() -> int:
    """Worker processes for fan-out-capable drivers: ``REPRO_JOBS`` (CI
    sets 2), default 1 so benchmark timings stay comparable."""
    return int(os.environ.get("REPRO_JOBS", "1"))


def loss_runs(params, direction, stacks, cases=ALL_CASES, rate_pps=1000):
    """Figs. 7/8: ``(stack, case) -> metrics`` of the ``loss`` family's
    runs, each stack's on one converged world."""
    specs = LOSS.expand(params, stacks, case=cases, direction=(direction,),
                        rate=(rate_pps,))
    return {(spec.stack.name, spec.point["case"]): outcome.metrics
            for spec, outcome in zip(specs, run_tasks(SCENARIO_RUN, specs))}


def emit(results_dir: Path, name: str, title: str, columns, rows, note="") -> str:
    text = render_table(title, columns, rows, note=note)
    save_result(results_dir, name, text)
    print()
    print(text)
    return text
