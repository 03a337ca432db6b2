#!/usr/bin/env python3
"""Packet-loss study (the paper's Figs. 7 and 8): a server flow crosses
the failed link while the fabric reconverges; the receiver-side analyzer
counts what the failure cost.

Run:  python examples/packet_loss_study.py [--pods 2] [--rate 1000]
"""

import argparse

from repro.harness.executor import run_tasks
from repro.harness.report import render_table
from repro.scenario import LOSS, SCENARIO_RUN
from repro.topology.clos import ClosParams
from repro.stacks import get_stack

CASES = ("TC1", "TC2", "TC3", "TC4")
STACKS = ("mtp", "bgp", "bgp-bfd")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pods", type=int, default=2)
    parser.add_argument("--rate", type=int, default=1000,
                        help="packets per second")
    args = parser.parse_args()
    params = ClosParams(num_pods=args.pods)

    for direction, figure in (("near", "Fig. 7"), ("far", "Fig. 8")):
        # one loss run per stack x case, each stack's runs on one world
        specs = LOSS.expand(params, STACKS, case=CASES,
                            direction=(direction,), rate=(args.rate,))
        lost = {(spec.stack.name, spec.point["case"]): outcome.metrics.lost
                for spec, outcome in zip(specs,
                                         run_tasks(SCENARIO_RUN, specs))}
        rows = [[get_stack(kind).display,
                 *(lost[(kind, case)] for case in CASES)]
                for kind in STACKS]
        where = ("sender adjoins the failure" if direction == "near"
                 else "sender far from the failure")
        print(render_table(
            f"{figure} — packets lost ({where}), {args.pods}-PoD, "
            f"{args.rate} pps",
            ["stack", *CASES], rows,
        ))
        print()

    print("Reading the shape (as in the paper):")
    print(" * near sender: TC1/TC3 lose ~nothing (the failure is detected")
    print("   locally and traffic switches instantly); TC2/TC4 lose one")
    print("   dead-timer's worth — 100 ms for MR-MTP, ~300 ms for BGP+BFD,")
    print("   the full ~3 s hold time for plain BGP.")
    print(" * far sender: the lossy cases flip to TC1/TC3, where the")
    print("   down-forwarding routers are unaware until their timers fire.")


if __name__ == "__main__":
    main()
