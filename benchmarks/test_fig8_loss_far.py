"""Fig. 8 — packet loss, traffic sender *away from* the failure point.

The mirror image of Fig. 7: traffic flows from the far rack toward the
rack adjoining the failure, so the lossy cases flip — at TC1/TC3 the
routers forwarding *down* toward the failure are unaware until their
dead/hold timer, while TC2/TC4 recover within the update cascade.
"""

from __future__ import annotations

import pytest

from repro.topology.clos import four_pod_params, two_pod_params
from repro.scenario import run_packet_loss_experiment
from repro.stacks import get_stack

from conftest import ALL_CASES, emit

STACKS = ("mtp", "bgp", "bgp-bfd")
RATE_PPS = 1000


@pytest.mark.parametrize("pods,params_fn", [(2, two_pod_params),
                                            (4, four_pod_params)])
def test_fig8_loss_sender_far(benchmark, results_dir, pods, params_fn):
    results = benchmark.pedantic(
        lambda: {
            (kind, case): run_packet_loss_experiment(
                params_fn(), kind, case, direction="far", rate_pps=RATE_PPS)
            for kind in STACKS for case in ALL_CASES
        },
        rounds=1, iterations=1,
    )
    rows = [
        [get_stack(kind).display] + [results[(kind, case)].lost for case in ALL_CASES]
        for kind in STACKS
    ]
    emit(results_dir, f"fig8_loss_far_{pods}pod",
         f"Fig. 8 — packets lost, sender far from failure, {pods}-PoD "
         f"({RATE_PPS} pps)",
         ["stack"] + list(ALL_CASES), rows)

    lost = {k: results[k].lost for k in results}
    for kind in STACKS:
        # the lossy cases flipped relative to Fig. 7
        assert lost[(kind, "TC1")] > lost[(kind, "TC2")], kind
        assert lost[(kind, "TC3")] > lost[(kind, "TC4")], kind
        # cascade-recovered cases lose only a handful of packets
        assert lost[(kind, "TC2")] <= 10, kind
        assert lost[(kind, "TC4")] <= 10, kind
    for case in ("TC1", "TC3"):
        mtp, bfd, bgp = (lost[("mtp", case)],
                         lost[("bgp-bfd", case)],
                         lost[("bgp", case)])
        assert mtp < bfd < bgp, (case, mtp, bfd, bgp)
        assert mtp <= 130, case


def test_fig8_bfd_cuts_loss_by_large_factor(benchmark):
    """Paper VII.E: enabling BFD has a profound effect on far-side loss."""
    def measure():
        bgp = run_packet_loss_experiment(two_pod_params(), "bgp",
                                         "TC1", direction="far")
        bfd = run_packet_loss_experiment(two_pod_params(), "bgp-bfd",
                                         "TC1", direction="far")
        return bgp, bfd

    bgp, bfd = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert bfd.lost * 3 <= bgp.lost
