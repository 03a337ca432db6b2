"""Cross-backend golden regression: the timer wheel must be invisible.

The wheel scheduler is a pure performance substitution — same
(time, priority, seq) total order, same tombstone semantics — so every
run digest and every golden metric must come out byte-identical whether
the engine runs on the wheel or the legacy heap, and whether tasks run
inline, through the process pool, or under the supervisor.  Any
divergence here is an ordering bug in the wheel, not a tolerance issue:
there is no epsilon.
"""

from __future__ import annotations

import pytest

from repro.harness.executor import RetryPolicy, assert_fanout_deterministic
from repro.harness.experiments import (
    ExperimentSpec,
    run_experiment_task,
)
from repro.scenario import (
    SCENARIO_RUN,
    ScenarioRunSpec,
    get_scenario,
    run_scenario_task,
    scenario_suite_specs,
)
from repro.scenario.runner import run_scenario_suite
from repro.sim.engine import BACKEND_ENV_VAR, BACKENDS, HEAP_BACKEND
from repro.stacks import resolve_spec
from repro.topology.clos import two_pod_params

from tests.harness.test_golden_metrics import GOLDEN

# A representative slice of the golden table: the headline wide-blast
# case and a narrow fast-converging one, on the paper's stack and on
# the BGP baseline.  The full table runs in test_golden_metrics; here
# each case runs twice (once per backend), so we keep the slice small.
CASES = [("mtp", "TC1"), ("mtp", "TC4"), ("bgp-bfd", "TC4")]


def _experiment_spec(stack: str, case: str) -> ExperimentSpec:
    return ExperimentSpec(params=two_pod_params(),
                          stack=resolve_spec(stack),
                          case_name=case, seed=0)


def _scenario_spec(name: str, stack: str = "mtp") -> ScenarioRunSpec:
    return ScenarioRunSpec(params=two_pod_params(),
                           stack=resolve_spec(stack),
                           scenario=get_scenario(name), seed=0)


@pytest.mark.parametrize("stack,case", CASES)
def test_experiment_digest_identical_on_both_backends(
        stack, case, monkeypatch):
    outcomes = {}
    for backend in BACKENDS:
        monkeypatch.setenv(BACKEND_ENV_VAR, backend)
        outcomes[backend] = run_experiment_task(_experiment_spec(stack, case))
    digests = {b: o.digest for b, o in outcomes.items()}
    assert len(set(digests.values())) == 1, (
        f"{stack} {case}: run digests diverge across engine backends: "
        f"{digests}")
    # and both reproduce the frozen golden metrics exactly
    conv, ctrl_bytes, updates, blast = GOLDEN[(stack, case)]
    for backend, outcome in outcomes.items():
        result = outcome.result
        assert result.convergence_us == conv, (
            f"{backend} backend drifted from golden convergence on "
            f"{stack} {case}")
        assert result.control_bytes == ctrl_bytes
        assert result.update_count == updates
        assert result.blast_routers == blast


def test_scenario_digest_identical_on_both_backends(monkeypatch):
    digests = {}
    for backend in BACKENDS:
        monkeypatch.setenv(BACKEND_ENV_VAR, backend)
        digests[backend] = run_scenario_task(_scenario_spec("tc1")).digest
    assert len(set(digests.values())) == 1, (
        f"scenario tc1 digests diverge across backends: {digests}")


def test_scenario_library_serial_vs_pool_on_wheel():
    """The determinism guard, on the wheel backend: serial and jobs=2
    pool execution of a scenario slice must produce identical digests
    (the guard forces the pool even on a 1-core host)."""
    specs = scenario_suite_specs(
        two_pod_params(),
        [get_scenario("tc2"), get_scenario("tc4")],
        ["mtp"],
    )
    digests = assert_fanout_deterministic(SCENARIO_RUN, specs, jobs=2)
    assert len(digests) == len(specs)


def test_supervised_suite_matches_serial_across_backends(monkeypatch):
    """--jobs 2 under the supervisor (child process per attempt) must
    reproduce the inline serial digests, on both backends, and the two
    backends must agree with each other."""
    scenarios = [get_scenario("tc4")]
    per_backend = {}
    for backend in BACKENDS:
        monkeypatch.setenv(BACKEND_ENV_VAR, backend)
        serial = [run_scenario_task(s).digest for s in scenario_suite_specs(
            two_pod_params(), scenarios, ["mtp"])]
        supervised = run_scenario_suite(
            two_pod_params(), scenarios, ["mtp"], jobs=2,
            policy=RetryPolicy(max_attempts=1))
        assert [o.digest for o in supervised] == serial, (
            f"supervised jobs=2 diverged from serial on {backend}")
        per_backend[backend] = serial
    assert per_backend[HEAP_BACKEND] == per_backend[
        [b for b in BACKENDS if b != HEAP_BACKEND][0]], (
        f"backends disagree on supervised suite digests: {per_backend}")
