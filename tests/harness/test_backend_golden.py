"""Golden regression against the reference scheduler: the timer wheel
must be invisible.

The wheel is a pure performance substitution for a plain binary heap —
same (time, priority, born, seq) total order, same tombstone semantics —
so every run digest and every golden metric must come out
byte-identical whether the engine runs on the wheel or on the reference
heap (``tests/sim/reference_heap.py``), and whether tasks run serially,
fanned out to forked children, or under the supervisor.  The reference
is installed in-process only, so it runs serially; fanned-out and
supervised runs are on the wheel.  Any divergence here is an ordering bug in the wheel,
not a tolerance issue: there is no epsilon.
"""

from __future__ import annotations

import pytest

from repro.harness.executor import (
    RetryPolicy,
    assert_fanout_deterministic,
    run_tasks,
)
from repro.net import world
from repro.scenario import (
    LIBRARY,
    SCENARIO_RUN,
    TC_RUN,
    ScenarioRunSpec,
    get_scenario,
    run_scenario_task,
)
from repro.stacks import resolve_spec
from repro.topology.clos import two_pod_params

from tests.harness.test_golden_metrics import GOLDEN
from tests.sim.reference_heap import heap_simulator

# A representative slice of the golden table: the headline wide-blast
# case and a narrow fast-converging one, on the paper's stack and on
# the BGP baseline.  The full table runs in test_golden_metrics; here
# each case runs twice (wheel, then reference), so we keep the slice
# small.
CASES = [("mtp", "TC1"), ("mtp", "TC4"), ("bgp-bfd", "TC4")]


def _experiment_spec(stack: str, case: str) -> ScenarioRunSpec:
    return TC_RUN.expand(two_pod_params(), [stack], case=(case,))[0]


def _scenario_spec(name: str, stack: str = "mtp") -> ScenarioRunSpec:
    return ScenarioRunSpec(params=two_pod_params(),
                           stack=resolve_spec(stack),
                           scenario=get_scenario(name), seed=0)


def _on_both(monkeypatch, run):
    """``run()`` on the wheel, then with every new World on the
    reference heap: ``{"wheel": ..., "heap": ...}``."""
    built = []

    def reference():
        built.append(True)
        return heap_simulator()

    outcomes = {"wheel": run()}
    with monkeypatch.context() as patch:
        patch.setattr(world, "Simulator", reference)
        outcomes["heap"] = run()
    assert built, "no World was built on the reference heap"
    return outcomes


@pytest.mark.parametrize("stack,case", CASES)
def test_experiment_digest_identical_on_both_backends(
        stack, case, monkeypatch):
    outcomes = _on_both(monkeypatch, lambda: run_scenario_task(
        _experiment_spec(stack, case)))
    digests = {b: o.digest for b, o in outcomes.items()}
    assert len(set(digests.values())) == 1, (
        f"{stack} {case}: run digests diverge across schedulers: "
        f"{digests}")
    # and both reproduce the frozen golden metrics exactly
    conv, ctrl_bytes, updates, blast = GOLDEN[(stack, case)]
    for backend, outcome in outcomes.items():
        result = outcome.metrics
        assert result.convergence_us == conv, (
            f"{backend} scheduler drifted from golden convergence on "
            f"{stack} {case}")
        assert result.control_bytes == ctrl_bytes
        assert result.update_count == updates
        assert result.blast_routers == blast


def test_scenario_digest_identical_on_both_backends(monkeypatch):
    digests = _on_both(monkeypatch, lambda: run_scenario_task(
        _scenario_spec("tc1")).digest)
    assert len(set(digests.values())) == 1, (
        f"scenario tc1 digests diverge across schedulers: {digests}")


def test_scenario_library_serial_vs_pool_on_wheel():
    """The determinism guard, on the wheel: serial, jobs=2 fan-out and
    supervised execution of a scenario slice must produce identical
    digests (the guard forces two children even on a 1-core host)."""
    specs = LIBRARY.expand(
        two_pod_params(), ["mtp"],
        scenario=[get_scenario("tc2"), get_scenario("tc4")])
    digests = assert_fanout_deterministic(SCENARIO_RUN, specs, jobs=2)
    assert len(digests) == len(specs)


def test_supervised_suite_matches_serial_across_backends(monkeypatch):
    """--jobs 2 under the supervisor (a forked child per attempt, on the
    wheel) must reproduce the inline serial digests of the wheel and of
    the reference heap."""
    specs = LIBRARY.expand(two_pod_params(), ["mtp"],
                           scenario=[get_scenario("tc4")])
    serial = _on_both(monkeypatch, lambda: [
        run_scenario_task(s).digest for s in specs])
    supervised = run_tasks(SCENARIO_RUN, specs, jobs=2,
                           policy=RetryPolicy(max_attempts=1))
    assert [o.digest for o in supervised] == serial["wheel"] == serial[
        "heap"], f"supervised jobs=2 diverged from serial: {serial}"
