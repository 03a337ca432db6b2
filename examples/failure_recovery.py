#!/usr/bin/env python3
"""Failure-recovery walkthrough: inject the paper's TC1 interface
failure under each protocol stack and print the event timeline —
detection, update cascade, convergence.

Run:  python examples/failure_recovery.py [TC1|TC2|TC3|TC4]
"""

import sys

from repro.harness.experiments import StackKind
from repro.scenario import get_scenario, run_scenario
from repro.topology import build_topology
from repro.topology.clos import two_pod_params

TIMELINE_CATEGORIES = (
    "fail.inject",
    "iface.down",
    "bgp.session",
    "bgp.bfd",
    "bgp.holdtime",
    "bgp.update.tx",
    "bfd.detect",
    "mtp.neighbor",
    "mtp.update.tx",
    "mtp.table",
)


def run_case(kind: StackKind, case_name: str) -> None:
    print(f"\n===== {kind.value}, failure case {case_name} =====")
    case = build_topology(two_pod_params()).failure_cases()[case_name]
    print(f"failing {case.node}:{case.interface} ({case.description}); "
          f"peer {case.peer_node} must detect via its timers")

    metrics, world = run_scenario(get_scenario(case_name.lower()),
                                  two_pod_params(), kind, return_world=True)
    t0 = next(world.trace.select(category="fail.inject")).time

    print("\ntimeline (ms after failure):")
    shown = 0
    for rec in world.trace.select(since=t0):
        if rec.category not in TIMELINE_CATEGORIES:
            continue
        shown += 1
        if shown > 30:
            print("    ...")
            break
        extra = f" [{rec.data['bytes']} B]" if "bytes" in rec.data else ""
        print(f"  {(rec.time - t0) / 1000:>10.3f}  {rec.node:<7s} "
              f"{rec.category:<15s} {rec.message}{extra}")

    print(f"\nconvergence time : {metrics.convergence_ms:.2f} ms")
    print(f"control overhead : {metrics.control_bytes} B "
          f"in {metrics.update_count} update messages")
    print(f"blast radius     : {metrics.blast_radius} routers updated "
          f"tables: {metrics.blast_routers}")


def main() -> None:
    case = sys.argv[1] if len(sys.argv) > 1 else "TC1"
    if case not in ("TC1", "TC2", "TC3", "TC4"):
        raise SystemExit(f"unknown case {case}")
    for kind in (StackKind.MTP, StackKind.BGP, StackKind.BGP_BFD):
        run_case(kind, case)


if __name__ == "__main__":
    main()
