"""The campaign contract, once for every task kind.

Each :class:`~repro.harness.executor.TaskKind` is run over a few small
specs on the 2-PoD fabric by every strategy of :func:`run_tasks`:
inline, the process pool (forced even on a small host) and supervised
children — the outcomes, run digests included, must be identical — and
a second cached call must replay every task with equal outcomes.  A kind
that leaks state between tasks, pickles badly, or encodes lossily fails
here, whichever kind it is.
"""

from __future__ import annotations

import pytest

from repro.harness.cache import ResultCache
from repro.harness.chaos import CHAOS_POINT, ChaosPointSpec
from repro.harness.executor import CampaignReport, RetryPolicy, run_tasks
from repro.harness.sweep import SWEEP_POINT, FailurePoint, SweepPointSpec
from repro.scenario import SCENARIO_RUN, ScenarioRunSpec, get_scenario
from repro.sim.units import SECOND
from repro.stacks import resolve_spec
from repro.topology.clos import two_pod_params
from repro.workload import WORKLOAD_RUN, WorkloadRunSpec, WorkloadSpec

TINY = WorkloadSpec(name="tiny", matrix="uniform", flows=400,
                    duration_ms=300, epoch_ms=25)
POINT = FailurePoint("L-1-1", "eth1", "S-1-1")


def _common(stack: str, seed: int = 0) -> dict:
    return dict(params=two_pod_params(), stack=resolve_spec(stack),
                seed=seed)


CASES = {
    # two scenarios of one world: inline restores the second from the
    # first's snapshot, supervised children converge both cold; and a
    # seeded failure run (`repro fail --runs`) of another world
    SCENARIO_RUN: [
        *(ScenarioRunSpec(scenario=get_scenario(name), **_common("bgp-bfd"))
          for name in ("tc2", "tc4")),
        ScenarioRunSpec(scenario=get_scenario("tc1"), **_common("mtp", 1))],
    WORKLOAD_RUN: [
        WorkloadRunSpec(workload=TINY, **_common(stack))
        for stack in ("mtp", "bgp-bfd")],
    # a classic probe-only point and a loaded one
    SWEEP_POINT: [
        SweepPointSpec(point=POINT, reconverge_margin_us=SECOND,
                       **_common("mtp", seed=7)),
        SweepPointSpec(point=POINT, reconverge_margin_us=SECOND,
                       workload=TINY, **_common("bgp"))],
    # a detector that false-flags (flaps, churn, MTTR) and the adaptive
    # ones that must not: their timer choices and damping replay exactly
    CHAOS_POINT: [
        ChaosPointSpec(loss=0.1, window_ms=1500, traffic_count=100,
                       **_common(stack))
        for stack in ("mtp", "mtp-adaptive", "bgp-bfd-damped")],
}


@pytest.mark.parametrize("kind", CASES, ids=lambda kind: kind.name)
def test_task_kind_contract(kind, tmp_path):
    specs = CASES[kind]
    cache = ResultCache(tmp_path)
    first = CampaignReport()
    inline = [kind.encode(o) for o in run_tasks(kind, specs, cache=cache,
                                                report=first)]
    assert (first.executed, first.cached) == (len(specs), 0)
    assert len({payload["digest"] for payload in inline}) == len(specs)

    pooled = run_tasks(kind, specs, jobs=2, allow_oversubscribe=True)
    supervised = run_tasks(kind, specs, jobs=2, allow_oversubscribe=True,
                           policy=RetryPolicy(max_attempts=1))
    assert [kind.encode(o) for o in pooled] == inline
    assert [kind.encode(o) for o in supervised] == inline

    replay = CampaignReport()
    replayed = run_tasks(kind, specs, cache=cache, report=replay)
    assert (replay.executed, replay.cached) == (0, len(specs))
    assert [kind.encode(o) for o in replayed] == inline
