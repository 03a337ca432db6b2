#!/usr/bin/env python3
"""Scalability study (the paper's future work, section IX): grow the
fabric beyond the FABRIC testbed's 4-PoD limit and add a fourth tier,
tracking how MR-MTP's and BGP's failure-handling costs scale.

Run:  python examples/scalability_study.py [--max-pods 8]
"""

import argparse

from repro.harness.experiments import build_and_converge
from repro.scenario import run_failure_experiment
from repro.harness.report import render_table
from repro.topology.clos import ClosParams
from repro.stacks import get_stack


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-pods", type=int, default=8)
    args = parser.parse_args()

    pods_sweep = [p for p in (2, 4, 6, 8, 12, 16) if p <= args.max_pods]
    rows = []
    for pods in pods_sweep:
        params = ClosParams(num_pods=pods)
        for kind in ("mtp", "bgp"):
            r = run_failure_experiment(params, kind, "TC1")
            rows.append([pods, params.num_routers, get_stack(kind).display,
                         f"{r.convergence_ms:.2f}", r.control_bytes,
                         r.blast_radius])
    print(render_table(
        "TC1 failure handling vs fabric size (3 tiers)",
        ["pods", "routers", "stack", "conv ms", "ctrl B", "blast"],
        rows,
        note="MR-MTP's convergence is dead-timer-flat; its control "
             "overhead grows with the ToR count but stays a small "
             "fraction of BGP's.",
    ))

    print()
    print("=== four tiers: two zones stitched by super-spines ===")
    params = ClosParams(num_pods=2, zones=2, supers_per_group=2)
    rows = []
    for kind in ("mtp", "bgp"):
        world, topo, dep = build_and_converge(params, kind,
                                              max_converge_us=120_000_000)
        if kind == "mtp":
            sup = topo.all_supers()[0]
            table = dep.mtp_nodes[sup].table
            state = f"{table.entry_count()} VIDs, depth 4"
        else:
            sup = topo.all_supers()[0]
            state = f"{len(dep.stacks[sup].table)} routes"
        r = run_failure_experiment(params, kind, "TC1")
        rows.append([get_stack(kind).display, len(topo.routers()), state,
                     f"{r.convergence_ms:.2f}", r.control_bytes])
    print(render_table(
        "4-tier fabric (2 zones x 2 PoDs + super-spines)",
        ["stack", "routers", "super-spine state", "conv ms", "ctrl B"],
        rows,
        note="VIDs simply grow one component per tier "
             "(root.torport.aggport.topport) — the auto-addressing "
             "scheme 'can easily scale to any number of spine tiers' "
             "(paper section III.B).",
    ))


if __name__ == "__main__":
    main()
