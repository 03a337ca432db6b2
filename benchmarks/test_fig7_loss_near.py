"""Fig. 7 — packet loss, traffic sender *closer* to the failure point.

Traffic flows from the first rack (ToR VID 11) toward the last rack
(ToR VID 14 in 2-PoD), on a flow chosen to cross the failed link.
Paper's shape: TC1/TC3 lose almost nothing (the sender-side router sees
its own port die and switches instantly); TC2/TC4 lose a dead-timer's
worth of traffic — bounded by 100 ms for MR-MTP, ~300 ms for BGP+BFD and
the full hold time (~3 s) for plain BGP.
"""

from __future__ import annotations

import pytest

from repro.topology.clos import four_pod_params, two_pod_params
from repro.scenario import run_packet_loss_experiment
from repro.stacks import get_stack

from conftest import ALL_CASES, emit

STACKS = ("mtp", "bgp", "bgp-bfd")
RATE_PPS = 1000


def sweep(params, direction):
    return {
        (kind, case): run_packet_loss_experiment(
            params, kind, case, direction=direction, rate_pps=RATE_PPS)
        for kind in STACKS for case in ALL_CASES
    }


@pytest.mark.parametrize("pods,params_fn", [(2, two_pod_params),
                                            (4, four_pod_params)])
def test_fig7_loss_sender_near(benchmark, results_dir, pods, params_fn):
    results = benchmark.pedantic(
        lambda: sweep(params_fn(), "near"), rounds=1, iterations=1
    )
    rows = [
        [get_stack(kind).display] + [results[(kind, case)].lost for case in ALL_CASES]
        for kind in STACKS
    ]
    emit(results_dir, f"fig7_loss_near_{pods}pod",
         f"Fig. 7 — packets lost, sender near failure, {pods}-PoD "
         f"({RATE_PPS} pps)",
         ["stack"] + list(ALL_CASES), rows)

    lost = {k: results[k].lost for k in results}
    for kind in STACKS:
        # local-detection cases lose (almost) nothing
        assert lost[(kind, "TC1")] <= 5, kind
        assert lost[(kind, "TC3")] <= 5, kind
    for case in ("TC2", "TC4"):
        mtp, bfd, bgp = (lost[("mtp", case)],
                         lost[("bgp-bfd", case)],
                         lost[("bgp", case)])
        assert mtp < bfd < bgp, (case, mtp, bfd, bgp)
        # dead-timer bounds (+ margin): 100 ms, 300 ms, 3 s at 1000 pps
        assert mtp <= 130, case
        assert bfd <= 450, case
        assert bgp <= 3300, case
        assert bgp >= 1000, f"{case}: plain BGP must lose a hold-timer's worth"


def test_fig7_no_duplicates_or_reordering(benchmark):
    """The failover must not duplicate or reorder the surviving flow."""
    result = benchmark.pedantic(
        lambda: run_packet_loss_experiment(
            two_pod_params(), "mtp", "TC2", direction="near"),
        rounds=1, iterations=1,
    )
    assert result.duplicated == 0
    assert result.out_of_order == 0
