"""Fig. 6 — control overhead: bytes of update messages after a failure.

Paper's numbers: MR-MTP 120 B (2-PoD) -> 264 B (4-PoD); BGP 1023 B ->
2139 B; i.e. BGP costs several times more and both roughly double when
the fabric doubles.  Our reproduction lands at ~123/259 B for MR-MTP
(within a few bytes of the paper) and ~651/1395 B for BGP (same growth
factor; the absolute gap is ~5x rather than ~9x because our UPDATEs
carry only the mandatory attributes — see EXPERIMENTS.md).
"""

from __future__ import annotations

import pytest

from repro.topology.clos import four_pod_params, two_pod_params
from repro.harness.experiments import StackKind
from repro.scenario import run_failure_experiment

from conftest import ALL_CASES, emit

STACKS = (StackKind.MTP, StackKind.BGP, StackKind.BGP_BFD)


def worst_case_overhead(params, kind):
    """The figure's headline value: the TC1/TC2 (ToR-link) cascade."""
    return run_failure_experiment(params, kind, "TC1").control_bytes


@pytest.mark.parametrize("pods,params_fn", [(2, two_pod_params),
                                            (4, four_pod_params)])
def test_fig6_control_overhead(benchmark, results_dir, pods, params_fn):
    results = benchmark.pedantic(
        lambda: {
            (kind, case): run_failure_experiment(params_fn(), kind, case)
            for kind in STACKS for case in ALL_CASES
        },
        rounds=1, iterations=1,
    )
    rows = [
        [kind.value]
        + [results[(kind, case)].control_bytes for case in ALL_CASES]
        + [results[(kind, "TC1")].update_count]
        for kind in STACKS
    ]
    emit(results_dir, f"fig6_control_overhead_{pods}pod",
         f"Fig. 6 — control overhead (bytes of updates), {pods}-PoD",
         ["stack"] + list(ALL_CASES) + ["msgs@TC1"], rows)

    ctrl = {k: results[k].control_bytes for k in results}
    for case in ALL_CASES:
        mtp = ctrl[(StackKind.MTP, case)]
        bgp = ctrl[(StackKind.BGP, case)]
        assert mtp < bgp, case
        assert bgp / max(mtp, 1) >= 3, (
            f"{case}: BGP should cost several times MR-MTP "
            f"({bgp} vs {mtp})"
        )
    # MR-MTP's ToR-link cascade sits near the paper's 120 B / 264 B
    expected = 120 if pods == 2 else 264
    measured = ctrl[(StackKind.MTP, "TC1")]
    assert abs(measured - expected) <= 0.2 * expected, (
        f"MR-MTP overhead {measured} B deviates >20% from the paper's "
        f"{expected} B"
    )


def test_fig6_doubling_the_fabric_roughly_doubles_overhead(benchmark):
    """Paper VII.C: 'slightly more than double' for both protocols."""
    def measure():
        return {
            kind: (worst_case_overhead(two_pod_params(), kind),
                   worst_case_overhead(four_pod_params(), kind))
            for kind in (StackKind.MTP, StackKind.BGP)
        }

    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    for kind, (small, large) in result.items():
        growth = large / small
        assert 1.8 <= growth <= 2.6, (kind, growth)
