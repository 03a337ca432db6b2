#!/usr/bin/env python3
"""Meshed-tree walkthrough: watch the trees grow message by message
(the paper's section III / Fig. 2 narrative) and see a data packet
forwarded by VIDs, with Wireshark-style dissection of the frames.

Run:  python examples/meshed_tree_walkthrough.py
"""

from repro.core.messages import MtpData, MtpKeepalive
from repro.harness.convergence import converge_from_cold
from repro.stacks import mtp
from repro.net.capture import Capture
from repro.net.dissect import dissect, dissect_capture
from repro.net.world import World
from repro.sim.units import SECOND
from repro.stack.ethernet import ETHERTYPE_MTP
from repro.topology.clos import build_folded_clos, two_pod_params
from repro.traffic.generator import ReceiverAnalyzer, TrafficSender


def main() -> None:
    world = World(seed=7)
    topo = build_folded_clos(two_pod_params(), world=world)
    deployment = mtp.deploy(topo)

    # capture all MR-MTP control traffic on the first ToR's uplink
    tor = topo.tors[0][0][0]
    agg = topo.aggs[0][0][0]
    link = world.find_link(tor, agg)
    control_cap = Capture(
        frame_filter=lambda f: f.ethertype == ETHERTYPE_MTP
        and not isinstance(f.payload, (MtpKeepalive, MtpData)))
    control_cap.attach((link.end_a, link.end_b))

    deployment.start()
    converge_from_cold(world, deployment, deployment.trees_complete)

    print(f"=== tree construction on the {tor} <-> {agg} link ===")
    print(dissect_capture(
        (r for r in control_cap.records if r.direction.value == "tx"),
        limit=12))
    print()

    print(f"=== the resulting meshed-tree state ===")
    print(f"{tor} is the root of its tree with ToR VID "
          f"{deployment.mtp_nodes[tor].own_root}")
    print(f"\n{agg}'s VID table (one child VID per pod ToR):")
    print(deployment.mtp_nodes[agg].table.render())
    top = topo.tops[0][0][0]
    print(f"\n{top}'s VID table (the trees of all four ToRs mesh here):")
    print(deployment.mtp_nodes[top].table.render())
    print()

    # one data packet, dissected at the ToR uplink
    print("=== an encapsulated IP packet on the wire (section III.D) ===")
    from repro.harness.pathtrace import find_crossing_flow

    data_cap = Capture(frame_filter=lambda f: isinstance(f.payload, MtpData))
    data_cap.attach((link.end_a, link.end_b))
    src = topo.first_server_of(tor)
    dst = topo.first_server_of(topo.tors[0][1][1])
    analyzer = ReceiverAnalyzer(deployment.servers[dst].udp)
    # pick a flow that the ECMP hash sends over the captured uplink
    src_port = find_crossing_flow(deployment, src, dst, tor, agg)
    sender = TrafficSender(deployment.servers[src].udp,
                           topo.server_address(dst), gap_us=1000,
                           src_port=src_port)
    sender.start(count=8)
    world.run_for(1 * SECOND)
    if data_cap.records:
        print(dissect(data_cap.records[0].frame))
    else:
        print("(this flow hashed onto the other uplink — both are valid)")
    print()
    print(f"delivered: {analyzer.report(sender)}")

    # and the famous 1-byte keepalive (Fig. 10)
    print()
    print("=== the 1-byte keepalive (Fig. 10) ===")
    ka_cap = Capture(frame_filter=lambda f: isinstance(f.payload, MtpKeepalive))
    ka_cap.attach((link.end_a,))
    world.run_for(200_000)
    print(dissect(ka_cap.records[0].frame))


if __name__ == "__main__":
    main()
