"""Fig. 4 — network convergence time (ms) for TC1-TC4.

Paper's shape: MR-MTP converges fastest everywhere; for TC2/TC4 (the
detecting router's own interface fails) convergence beats the failure
*detection* time because the update starts immediately; for TC1/TC3 the
remote end's dead/hold timer gates everything, so BGP sits near 3 s,
BGP+BFD near 300 ms and MR-MTP near 100 ms; 2-PoD and 4-PoD are nearly
identical because dissemination is cheap at this scale.
"""

from __future__ import annotations

import pytest

from repro.sim.units import MILLISECOND
from repro.topology.clos import four_pod_params, two_pod_params
from repro.scenario import run_failure_experiment
from repro.stacks import get_stack

from conftest import ALL_CASES, emit

STACKS = ("mtp", "bgp", "bgp-bfd")


def sweep(params):
    return {
        (kind, case): run_failure_experiment(params, kind, case, seed=0)
        for kind in STACKS
        for case in ALL_CASES
    }


@pytest.mark.parametrize("pods,params_fn", [(2, two_pod_params),
                                            (4, four_pod_params)])
def test_fig4_convergence(benchmark, results_dir, pods, params_fn):
    results = benchmark.pedantic(
        lambda: sweep(params_fn()), rounds=1, iterations=1
    )
    rows = [
        [get_stack(kind).display] + [f"{results[(kind, case)].convergence_ms:.2f}"
                        for case in ALL_CASES]
        for kind in STACKS
    ]
    emit(results_dir, f"fig4_convergence_{pods}pod",
         f"Fig. 4 — convergence time (ms), {pods}-PoD",
         ["stack"] + list(ALL_CASES), rows)

    conv = {k: results[k].convergence_us for k in results}
    for case in ("TC1", "TC3"):
        # remote-detection cases: gated by the dead/hold timer
        assert conv[("mtp", case)] < conv[("bgp-bfd", case)] \
            < conv[("bgp", case)], case
        assert conv[("mtp", case)] <= 120 * MILLISECOND
        assert conv[("bgp", case)] >= 2000 * MILLISECOND
        assert conv[("bgp-bfd", case)] <= 400 * MILLISECOND
    for case in ("TC2", "TC4"):
        # local-detection cases: convergence beats the detection time
        for kind in STACKS:
            assert conv[(kind, case)] < 50 * MILLISECOND, (kind, case)


def test_fig4_2pod_vs_4pod_nearly_identical(benchmark):
    """Dissemination is cheap at these sizes: doubling the fabric must
    not move TC1 convergence by more than a few ms (paper VII.A)."""
    def both():
        a = run_failure_experiment(two_pod_params(), "mtp", "TC1")
        b = run_failure_experiment(four_pod_params(), "mtp", "TC1")
        return a, b

    a, b = benchmark.pedantic(both, rounds=1, iterations=1)
    assert abs(a.convergence_us - b.convergence_us) < 10 * MILLISECOND
