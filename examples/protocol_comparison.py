#!/usr/bin/env python3
"""The paper's full evaluation in one run: convergence time (Fig. 4),
blast radius (Fig. 5) and control overhead (Fig. 6) for the 2-PoD and
4-PoD fabrics under MR-MTP, BGP/ECMP and BGP/ECMP/BFD, plus the
configuration (Listings 1/2) and table-size (Listings 3/5) comparisons.

Run:  python examples/protocol_comparison.py           (2-PoD, seed 0)
      python examples/protocol_comparison.py --pods 4 --seeds 0 1 2
"""

import argparse

from repro.harness.experiments import (
    StackKind,
    run_config_cost_experiment,
    run_table_size_experiment,
)
from repro.scenario import average_failure_runs, run_failure_experiment
from repro.harness.report import render_table
from repro.topology.clos import ClosParams

CASES = ("TC1", "TC2", "TC3", "TC4")
STACKS = (StackKind.MTP, StackKind.BGP, StackKind.BGP_BFD)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pods", type=int, default=2)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = parser.parse_args()
    params = ClosParams(num_pods=args.pods)

    results = {}
    for kind in STACKS:
        for case in CASES:
            if len(args.seeds) == 1:
                results[(kind, case)] = run_failure_experiment(
                    params, kind, case, seed=args.seeds[0])
            else:
                results[(kind, case)] = average_failure_runs(
                    params, kind, case, seeds=tuple(args.seeds))

    print(render_table(
        f"Fig. 4 — convergence time (ms), {args.pods}-PoD",
        ["stack", *CASES],
        [[k.value] + [f"{results[(k, c)].convergence_ms:.2f}" for c in CASES]
         for k in STACKS],
    ))
    print()
    print(render_table(
        f"Fig. 5 — blast radius (routers updated), {args.pods}-PoD",
        ["stack", *CASES],
        [[k.value] + [results[(k, c)].blast_radius for c in CASES]
         for k in STACKS],
    ))
    print()
    print(render_table(
        f"Fig. 6 — control overhead (bytes), {args.pods}-PoD",
        ["stack", *CASES],
        [[k.value] + [results[(k, c)].control_bytes for c in CASES]
         for k in STACKS],
    ))

    print()
    config_rows = []
    for kind in (StackKind.MTP, StackKind.BGP):
        r = run_config_cost_experiment(params, kind)
        config_rows.append([kind.value, r.routers, r.documents,
                            r.total_lines, f"{r.lines_per_router:.1f}"])
    print(render_table(
        f"Listings 1/2 — configuration cost, {args.pods}-PoD",
        ["stack", "routers", "documents", "total lines", "lines/router"],
        config_rows,
    ))

    print()
    table_rows = []
    for kind in (StackKind.MTP, StackKind.BGP):
        sizes = run_table_size_experiment(params, kind)
        for role in ("agg", "top"):
            r = sizes[role]
            table_rows.append([kind.value, role, r.node, r.entries,
                               r.memory_bytes])
    print(render_table(
        f"Listings 3/5 — forwarding-table sizes, {args.pods}-PoD",
        ["stack", "role", "node", "entries", "bytes"],
        table_rows,
    ))


if __name__ == "__main__":
    main()
