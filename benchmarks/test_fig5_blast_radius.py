"""Fig. 5 — blast radius: routers that updated forwarding tables.

Paper's shape: MR-MTP touches far fewer routers than BGP; failures on
ToR-agg links (TC1/TC2) have a larger radius than agg-top links
(TC3/TC4); BFD does not change the radius (it only changes *when* the
same updates happen).  Our counter is precise — any router whose VID
table / FIB changed — so absolute values sit within ±1 of the paper's
prose counts (see EXPERIMENTS.md for the counting-rule discussion).
"""

from __future__ import annotations

import pytest

from repro.topology.clos import four_pod_params, two_pod_params
from repro.scenario import run_failure_experiment
from repro.stacks import get_stack

from conftest import ALL_CASES, emit

STACKS = ("mtp", "bgp", "bgp-bfd")


@pytest.mark.parametrize("pods,params_fn", [(2, two_pod_params),
                                            (4, four_pod_params)])
def test_fig5_blast_radius(benchmark, results_dir, pods, params_fn):
    results = benchmark.pedantic(
        lambda: {
            (kind, case): run_failure_experiment(params_fn(), kind, case)
            for kind in STACKS for case in ALL_CASES
        },
        rounds=1, iterations=1,
    )
    rows = [
        [get_stack(kind).display] + [results[(kind, case)].blast_radius
                        for case in ALL_CASES]
        for kind in STACKS
    ]
    emit(results_dir, f"fig5_blast_radius_{pods}pod",
         f"Fig. 5 — blast radius (routers updated), {pods}-PoD",
         ["stack"] + list(ALL_CASES), rows,
         note="counting rule: routers whose forwarding state changed "
              "after the failure (precise variant of the paper's count)")

    blast = {k: results[k].blast_radius for k in results}
    for case in ALL_CASES:
        # MR-MTP's radius never exceeds BGP's
        assert blast[("mtp", case)] <= blast[("bgp", case)], case
        # BFD does not change the blast radius
        assert blast[("bgp", case)] == blast[("bgp-bfd", case)], case
    for kind in STACKS:
        # ToR-agg failures touch more routers than agg-top failures
        assert blast[(kind, "TC1")] > blast[(kind, "TC3")], kind
        assert blast[(kind, "TC2")] > blast[(kind, "TC4")], kind
        # the two ends of the same link produce the same radius
        assert blast[(kind, "TC1")] == blast[(kind, "TC2")], kind
        assert blast[(kind, "TC3")] == blast[(kind, "TC4")], kind


def test_fig5_radius_grows_with_fabric(benchmark):
    """4-PoD radii exceed 2-PoD radii for TC1 (more ToRs to notify)."""
    def both():
        small = run_failure_experiment(two_pod_params(), "mtp", "TC1")
        large = run_failure_experiment(four_pod_params(), "mtp", "TC1")
        return small, large

    small, large = benchmark.pedantic(both, rounds=1, iterations=1)
    assert large.blast_radius > small.blast_radius
