"""The campaign contract, once for every family of campaign task.

Every campaign runs ``SCENARIO_RUN`` tasks; each family of program
(library scenarios, loaded runs, sweep points, chaos points) is run over
a few small specs on the 2-PoD fabric by every mode of
:func:`run_tasks`:
serial, two forked children at once (forced even on a small host) and
supervised children — the outcomes, run digests included, must be
identical — and
a second cached call must replay every task with equal outcomes.  A
program that leaks state between tasks, pickles badly, or encodes
lossily fails here, whichever family it is.
"""

from __future__ import annotations

import pytest

from repro.harness.cache import ResultCache
from repro.harness.executor import CampaignReport, RetryPolicy, run_tasks
from repro.scenario import (
    CHAOS,
    LOAD,
    SCENARIO_RUN,
    SWEEP,
    FailurePoint,
    ScenarioRunSpec,
    get_scenario,
)
from repro.stacks import resolve_spec
from repro.topology.clos import two_pod_params
from repro.workload import WorkloadSpec

TINY = WorkloadSpec(name="tiny", matrix="uniform", flows=400,
                    duration_ms=300, epoch_ms=25)
POINT = FailurePoint("L-1-1", "eth1", "S-1-1")


def _common(stack: str, seed: int = 0) -> dict:
    return dict(params=two_pod_params(), stack=resolve_spec(stack),
                seed=seed)


# every campaign is a list of scenario runs; the cases (ids kept from
# when each was its own task kind) cover each family of program
CASES = {
    # two scenarios of one world: inline forks the first from it and
    # runs the second on it, supervised children converge both cold; and
    # a seeded failure run (`repro fail --runs`) of another world
    "scenario-run": [
        *(ScenarioRunSpec(scenario=get_scenario(name), **_common("bgp-bfd"))
          for name in ("tc2", "tc4")),
        ScenarioRunSpec(scenario=get_scenario("tc1"), **_common("mtp", 1))],
    "workload-run": LOAD.expand(two_pod_params(), ["mtp", "bgp-bfd"],
                                workload=[TINY]),
    # a classic probe-only point and a loaded one
    "sweep-point": [
        *SWEEP.expand(two_pod_params(), ["mtp"], seeds=(7,), point=[POINT]),
        *SWEEP.expand(two_pod_params(), ["bgp"], point=[POINT],
                      workload=[TINY])],
    # a detector that false-flags (flaps, churn, MTTR) and the adaptive
    # ones that must not: their timer choices and damping replay exactly
    "chaos-point": CHAOS.expand(
        two_pod_params(), ["mtp", "mtp-adaptive", "bgp-bfd-damped"],
        loss=(0.1,), window_ms=(1500,), count=(100,)),
}


@pytest.mark.parametrize("case", CASES)
def test_task_kind_contract(case, tmp_path):
    kind, specs = SCENARIO_RUN, CASES[case]
    cache = ResultCache(tmp_path)
    first = CampaignReport()
    inline = [kind.encode(o) for o in run_tasks(kind, specs, cache=cache,
                                                report=first)]
    assert (first.executed, first.cached) == (len(specs), 0)
    assert len({payload["digest"] for payload in inline}) == len(specs)

    fanned = run_tasks(kind, specs, jobs=2, allow_oversubscribe=True)
    supervised = run_tasks(kind, specs, jobs=2, allow_oversubscribe=True,
                           policy=RetryPolicy(max_attempts=1))
    assert [kind.encode(o) for o in fanned] == inline
    assert [kind.encode(o) for o in supervised] == inline

    replay = CampaignReport()
    replayed = run_tasks(kind, specs, cache=cache, report=replay)
    assert (replay.executed, replay.cached) == (0, len(specs))
    assert [kind.encode(o) for o in replayed] == inline
