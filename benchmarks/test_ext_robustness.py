"""Extension — exhaustive single-failure robustness sweep.

Beyond the paper's four hand-picked test cases: fail *every* fabric
interface (32 points in the 2-PoD), reconverge, and path-trace every
rack pair.  A folded-Clos keeps physical connectivity under any single
interface failure, so the sweep must find zero blackholes for every
registered stack — the three paper stacks plus the registry-only
variants (per-packet spray, single-path BGP) — and it reports how much
reconvergence "budget" each stack needs for that to hold.  The members
of an interface orbit (``fault_orbits``) must get one verdict.
"""

from __future__ import annotations

import pytest

from repro.topology import build_topology
from repro.topology.clos import two_pod_params
from repro.stacks import get_stack
from repro.harness.executor import run_tasks
from repro.scenario import SCENARIO_RUN, SWEEP
from repro.scenario.family import Tally
from repro.scenario.targets import fault_orbits

from conftest import emit

STACKS = ("mtp", "bgp", "bgp-bfd", "mtp-spray", "bgp-nomultipath")


@pytest.mark.parametrize("stack", STACKS)
def test_ext_robustness_sweep(benchmark, results_dir, stack, jobs):
    display = get_stack(stack).display
    specs = SWEEP.expand(two_pod_params(), [stack])
    results = benchmark.pedantic(
        lambda: SWEEP.rows(specs, run_tasks(SCENARIO_RUN, specs, jobs=jobs)),
        rounds=1, iterations=1,
    )
    summary = "\n".join(SWEEP.head(results, Tally([], "", 0.0)))
    blackholes = sum(len(r["unreachable"]) for r in results)
    rows = [[display, len(results),
             sum(r["pairs_checked"] for r in results), blackholes]]
    emit(results_dir, f"ext_robustness_{stack.replace('-', '_')}",
         f"Extension — exhaustive single-failure sweep, 2-PoD, {display}",
         ["stack", "failure points", "pair checks", "blackholes"], rows,
         note=summary)
    assert blackholes == 0, summary
    assert len(results) == 32
    verdicts = {(r["point"].node, r["point"].interface):
                (len(r["unreachable"]), r["pairs_checked"]) for r in results}
    for orbit in fault_orbits(build_topology(two_pod_params()), "interface"):
        assert len({verdicts[target] for target in orbit}) == 1, orbit
