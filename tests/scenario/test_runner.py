"""Scenario runs: golden equality with the classic experiment, digest
determinism, cache replay, and serial-vs-parallel byte-identity."""

from __future__ import annotations

import pytest

from repro.harness.cache import ResultCache
from repro.harness.executor import CampaignReport, assert_fanout_deterministic
from repro.harness.experiments import run_failure_experiment
from repro.scenario import (
    SCENARIO_RUN,
    ScenarioRunSpec,
    get_scenario,
    run_scenario,
    run_scenario_suite,
    run_scenario_task,
    scenario_suite_specs,
    scenario_task_key,
)
from repro.stacks import resolve_spec
from repro.topology.clos import two_pod_params

from tests.harness.test_golden_metrics import GOLDEN


# ----------------------------------------------------------------------
# TC1-TC4 as scenarios replay the classic experiment exactly
# ----------------------------------------------------------------------
@pytest.mark.parametrize("stack,case", sorted(GOLDEN))
def test_tc_scenarios_reproduce_golden_metrics(stack, case):
    expected_conv, expected_bytes, expected_updates, expected_blast = \
        GOLDEN[(stack, case)]
    metrics = run_scenario(get_scenario(case.lower()), two_pod_params(),
                           stack, seed=0)
    assert metrics.convergence_us == expected_conv, (
        f"scenario {case} on {stack} diverged from the classic "
        f"experiment: {metrics.convergence_us} us != {expected_conv} us")
    assert metrics.control_bytes == expected_bytes
    assert metrics.update_count == expected_updates
    assert metrics.blast_routers == expected_blast


def test_tc_scenario_matches_classic_at_nonzero_seed():
    """Equality must hold per seed, not just at the golden seed 0."""
    classic = run_failure_experiment(two_pod_params(), "mtp", "TC2", seed=3)
    metrics = run_scenario(get_scenario("tc2"), two_pod_params(), "mtp",
                           seed=3)
    assert metrics.convergence_us == classic.convergence_us
    assert metrics.control_bytes == classic.control_bytes
    assert metrics.blast_routers == classic.blast_routers


# ----------------------------------------------------------------------
# digests, cache, parallel
# ----------------------------------------------------------------------
def _spec(scenario_name: str, stack: str = "mtp",
          seed: int = 0) -> ScenarioRunSpec:
    return ScenarioRunSpec(params=two_pod_params(),
                           stack=resolve_spec(stack),
                           scenario=get_scenario(scenario_name), seed=seed)


def test_same_scenario_and_seed_same_digest():
    first = run_scenario_task(_spec("tc1"))
    second = run_scenario_task(_spec("tc1"))
    assert first.digest == second.digest
    assert len(first.digest) == 64  # SHA-256 hex


def test_digest_separates_seeds_and_scenarios():
    base = run_scenario_task(_spec("tc1"))
    assert run_scenario_task(_spec("tc1", seed=1)).digest != base.digest
    assert run_scenario_task(_spec("tc2")).digest != base.digest


def test_task_key_depends_on_scenario_content():
    keys = {scenario_task_key(_spec(name)) for name in ("tc1", "tc2")}
    assert len(keys) == 2
    assert scenario_task_key(_spec("tc1")) == scenario_task_key(_spec("tc1"))


def test_second_suite_run_is_served_from_cache(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    kwargs = dict(params=two_pod_params(),
                  scenarios=[get_scenario("tc1"), get_scenario("tc4")],
                  stacks=["mtp"], seed=0, cache=cache)
    cold_report, warm_report = CampaignReport(), CampaignReport()
    cold = run_scenario_suite(report=cold_report, **kwargs)
    warm = run_scenario_suite(report=warm_report, **kwargs)
    assert cold_report.executed == 2 and cold_report.cached == 0
    assert warm_report.executed == 0 and warm_report.cached == 2
    assert [o.digest for o in warm] == [o.digest for o in cold]
    assert [o.metrics for o in warm] == [o.metrics for o in cold]


def test_serial_and_parallel_digests_are_identical():
    specs = scenario_suite_specs(
        two_pod_params(), [get_scenario("tc2"), get_scenario("tc4")],
        ["mtp", "bgp-bfd"], seed=0)
    digests = assert_fanout_deterministic(SCENARIO_RUN, specs, jobs=2)
    assert len(digests) == len(specs)
