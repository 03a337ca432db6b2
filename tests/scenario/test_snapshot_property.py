"""Property: forked-then-run == cold-run.

The whole contract of converged-world sharing
(:func:`repro.harness.executor.run_sharing_worlds`).  A task list is run
through :func:`~repro.harness.executor.run_tasks`, so the tasks of each
world key converge that world once; every one but the last runs in a
forked child of it, the last on the world itself.  Every outcome
(metrics payload and run digest, which hashes the full trace from cold
start on) must equal the one a plain cold run of that spec gives.
Neighbouring tasks differ in seed or timers, so a world key that forgot
either hands a task the wrong world; a world touched by the task before
(compiled, settled, run) carries that task's events into the next.  Both
break the equality.  This is the library's side of forking; the fabric
machine (``test_fabric_machine``) forks mid-run under every fault."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bgp.config import BgpTimers
from repro.core.config import MtpTimers
from repro.harness.executor import CampaignReport, run_tasks
from repro.scenario import (
    SCENARIO_RUN,
    ScenarioRunSpec,
    canonical_scenarios,
    encode_scenario_outcome,
    get_scenario,
    run_scenario_task,
    scenario_task_key,
)
from repro.stacks import StackTimers, available_stacks, resolve_spec
from repro.topology import resolve_topology_spec
from repro.topology.clos import two_pod_params

TIMERS = (None, StackTimers(bgp=BgpTimers(jitter=0.2),
                            mtp=MtpTimers(jitter=0.2)))

#: (scenario, seed offset, timers variant); mostly the base world, so
#: runs of equal keys — and with them forks — are the common case
RUN = st.tuples(st.sampled_from(sorted(canonical_scenarios())),
                st.sampled_from((0, 0, 0, 1)),
                st.sampled_from((0, 0, 1)))

_cold: dict[str, dict] = {}   # cold outcomes are pure functions of the spec


def cold_outcome(spec: ScenarioRunSpec) -> dict:
    key = scenario_task_key(spec)
    if key not in _cold:
        _cold[key] = encode_scenario_outcome(run_scenario_task(spec))
    return _cold[key]


def assert_forked_equals_cold(specs: list[ScenarioRunSpec]) -> None:
    report = CampaignReport()
    for spec, outcome in zip(specs, run_tasks(SCENARIO_RUN, specs,
                                              report=report)):
        assert encode_scenario_outcome(outcome) == cold_outcome(spec), (
            spec.stack.name, spec.scenario.name, spec.seed)
    assert report.notes == []


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(stack=st.sampled_from(available_stacks()),
       seed=st.integers(min_value=0, max_value=2**16),
       invariants=st.booleans(),
       runs=st.lists(RUN, min_size=2, max_size=4))
def test_restored_world_runs_like_a_cold_one(stack, seed, invariants, runs):
    assert_forked_equals_cold([
        ScenarioRunSpec(params=two_pod_params(),
                        stack=resolve_spec(stack, TIMERS[variant]),
                        scenario=get_scenario(name), seed=seed + offset,
                        invariants=invariants)
        for name, offset, variant in runs])


def test_restored_vl2_world_runs_like_a_cold_one():
    vl2 = resolve_topology_spec("vl2")
    assert_forked_equals_cold([
        ScenarioRunSpec(params=vl2, stack=resolve_spec(stack),
                        scenario=get_scenario(name), seed=5,
                        invariants=True)
        for stack in ("mtp", "bgp-bfd")
        for name in ("tc1", "hotspot-drain", "rolling-restart")])

