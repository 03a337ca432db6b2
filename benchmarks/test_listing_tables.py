"""Listings 3 & 5 — forwarding-table size and shape.

Paper's comparison: a tier-2 spine's BGP RIB holds every rack prefix
(with ECMP next hops) plus connected routes, while an MR-MTP spine's VID
table holds a handful of compact VIDs per port; "as the size of the
network increases, a proportional increase in the routing table sizes
will be noticed" for BGP.
"""

from __future__ import annotations

from repro.topology.clos import four_pod_params, two_pod_params
from repro.harness.experiments import run_table_size_experiment
from repro.stacks import get_stack

from conftest import emit


def test_listing_table_sizes(benchmark, results_dir):
    def measure():
        return {
            (pods, kind): run_table_size_experiment(
                two_pod_params() if pods == 2 else four_pod_params(), kind)
            for pods in (2, 4)
            for kind in ("mtp", "bgp")
        }

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = []
    for (pods, kind), by_role in sorted(results.items(),
                                        key=lambda kv: (kv[0][0], get_stack(kv[0][1]).display)):
        for role in ("tor", "agg", "top"):
            r = by_role[role]
            rows.append([f"{pods}-PoD", get_stack(kind).display, role, r.node,
                         r.entries, r.memory_bytes])
    emit(results_dir, "listing_table_sizes",
         "Listings 3/5 — forwarding-table size at converged routers",
         ["fabric", "stack", "role", "node", "entries", "bytes"], rows)

    for pods in (2, 4):
        racks = 2 * pods
        bgp = results[(pods, "bgp")]
        mtp = results[(pods, "mtp")]
        # every BGP router carries all rack prefixes (+ connected)
        assert bgp["agg"].entries >= racks
        # the paper's Listing 5: a top spine's VID table is one VID per
        # ToR; an agg's is one per pod ToR
        assert mtp["top"].entries == racks
        assert mtp["agg"].entries == 2
        assert mtp["tor"].entries == 0
        # MR-MTP state is smaller than the BGP RIB at every tier
        for role in ("agg", "top"):
            assert mtp[role].memory_bytes < bgp[role].memory_bytes, (pods, role)

    # BGP table size grows proportionally with the fabric
    assert (results[(4, "bgp")]["agg"].entries
            > results[(2, "bgp")]["agg"].entries)


def test_listing_rendered_shapes(benchmark):
    """Rendered tables match the paper's listing formats."""
    def measure():
        return (run_table_size_experiment(four_pod_params(), "bgp"),
                run_table_size_experiment(four_pod_params(), "mtp"))

    bgp, mtp = benchmark.pedantic(measure, rounds=1, iterations=1)
    # Listing 3: `proto bgp metric 20` with ECMP nexthop blocks
    assert "proto bgp metric 20" in bgp["agg"].rendered
    assert "nexthop via" in bgp["agg"].rendered
    assert "weight 1" in bgp["agg"].rendered
    # Listing 5: `ethN   vid, vid` lines, one per port
    top_lines = mtp["top"].rendered.splitlines()
    assert len(top_lines) == 4  # one per pod-facing port
    assert all(line.split()[0].startswith("eth") for line in top_lines)
