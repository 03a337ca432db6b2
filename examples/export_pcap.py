#!/usr/bin/env python3
"""Export real .pcap files from a simulated run — the paper's capture
methodology end to end.  Produces one capture per protocol stack on the
first ToR-agg link (bring-up + steady state + a TC2 failure), openable
directly in Wireshark/tshark.

Run:  python examples/export_pcap.py [--outdir captures]
"""

import argparse
from pathlib import Path

from repro.harness.experiments import build_and_converge
from repro.net.capture import Capture
from repro.net.dissect import dissect_capture
from repro.sim.units import SECOND
from repro.topology.clos import two_pod_params
from repro.wire.pcap import write_capture
from repro.stacks import get_stack


def capture_run(kind: str, outdir: Path) -> Path:
    world, topo, dep = build_and_converge(two_pod_params(), kind)
    tor, agg = topo.tors[0][0][0], topo.aggs[0][0][0]
    link = world.find_link(tor, agg)
    cap = Capture()
    cap.attach((link.end_a, link.end_b))
    # two seconds of steady state, then the TC2 failure and its recovery
    world.run_for(2 * SECOND)
    case = topo.failure_cases()["TC2"]
    topo.node(case.node).interfaces[case.interface].set_admin(False)
    world.run_for(4 * SECOND)
    path = outdir / f"{kind}_tor_agg_link.pcap"
    count = write_capture(cap, path)
    print(f"{get_stack(kind).display}: wrote {count} frames to {path}")
    print(dissect_capture(
        (r for r in cap.records if r.direction.value == "tx"), limit=8))
    print()
    return path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("captures"))
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)
    for kind in ("mtp", "bgp", "bgp-bfd"):
        capture_run(kind, args.outdir)
    print(f"open them with: wireshark {args.outdir}/*.pcap")
    print("(MR-MTP frames appear as ethertype 0x8850 raw data — the "
          "keepalives show the single byte 06, as in the paper's Fig. 10)")


if __name__ == "__main__":
    main()
