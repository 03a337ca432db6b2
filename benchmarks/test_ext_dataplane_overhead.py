"""Extension — total on-the-wire overhead per delivered payload byte.

The paper's section IX promises "overhead calculations of using the
MR-MTP header for every IP packet and ... due to all protocols such as
BGP, TCP, BFD and UDP".  This bench does exactly that calculation: a
fixed workload crosses each fabric while every link is captured; we
report fabric bytes-on-wire per delivered payload byte, split into data
and control.

MR-MTP pays a ~5-byte encapsulation header per packet but runs no ARP,
no TCP/UDP control plane and 15-byte keepalives; BGP+BFD forwards IP
natively but pays 66-85-byte keepalive/ACK/BFD traffic on every link
continuously.
"""

from __future__ import annotations

from repro.sim.units import SECOND
from repro.topology.clos import two_pod_params
from repro.harness.experiments import build_and_converge
from repro.net.capture import Capture
from repro.stack.ethernet import ETHERTYPE_MTP
from repro.stack.ipv4 import Ipv4Packet
from repro.core.messages import MtpData
from repro.traffic.generator import ReceiverAnalyzer, TrafficSender
from repro.stacks import get_stack

from conftest import emit

PAYLOAD = 1000
COUNT = 2000
WINDOW_US = 5 * SECOND


def classify(frame) -> str:
    payload = frame.payload
    if frame.ethertype == ETHERTYPE_MTP:
        return "data" if isinstance(payload, MtpData) else "control"
    if isinstance(payload, Ipv4Packet):
        inner = payload.payload
        from repro.stack.udp import UdpDatagram
        from repro.traffic.generator import SeqPayload

        if isinstance(inner, UdpDatagram) and isinstance(inner.payload,
                                                         SeqPayload):
            return "data"
    return "control"


def run_workload(kind: str):
    world, topo, dep = build_and_converge(two_pod_params(), kind)
    capture = Capture()
    for link in world.links:
        if link.end_a.node.tier >= 1 and link.end_b.node.tier >= 1:
            capture.attach((link.end_a,))
            capture.attach((link.end_b,))
    src = topo.first_server_of(topo.tors[0][0][0])
    dst = topo.first_server_of(topo.tors[0][1][1])
    analyzer = ReceiverAnalyzer(dep.servers[dst].udp)
    sender = TrafficSender(dep.servers[src].udp, topo.server_address(dst),
                           payload_bytes=PAYLOAD, gap_us=2000)
    sender.start(count=COUNT)
    world.run_for(WINDOW_US)
    assert analyzer.received == COUNT
    data_bytes = 0
    control_bytes = 0
    for rec in capture.records:
        if rec.direction.value != "tx":
            continue
        if classify(rec.frame) == "data":
            data_bytes += rec.wire_size
        else:
            control_bytes += rec.wire_size
    delivered_payload = COUNT * PAYLOAD
    return data_bytes, control_bytes, delivered_payload


def test_ext_dataplane_overhead(benchmark, results_dir):
    results = benchmark.pedantic(
        lambda: {kind: run_workload(kind)
                 for kind in ("mtp", "bgp",
                              "bgp-bfd")},
        rounds=1, iterations=1,
    )
    rows = []
    for kind, (data, control, payload) in results.items():
        rows.append([
            get_stack(kind).display, payload, data, control,
            f"{(data + control) / payload:.4f}",
            f"{data / payload:.4f}",
        ])
    emit(results_dir, "ext_dataplane_overhead",
         f"Extension — fabric bytes per delivered payload byte "
         f"({COUNT} x {PAYLOAD} B over {WINDOW_US // SECOND} s)",
         ["stack", "payload B", "data B", "control B",
          "total/payload", "data/payload"], rows)

    mtp_data, mtp_ctrl, payload = results["mtp"]
    bgp_data, bgp_ctrl, _ = results["bgp"]
    bfd_data, bfd_ctrl, _ = results["bgp-bfd"]

    # data-plane: each packet crosses 4 fabric links, paying the 5-byte
    # MR-MTP encapsulation header on each -> exactly 20 B/packet extra
    per_packet_delta = (mtp_data - bgp_data) / COUNT
    assert per_packet_delta == 5 * 4, per_packet_delta
    # control plane: MR-MTP's keepalives cost less than BGP+BFD's suite
    assert mtp_ctrl < bfd_ctrl
    # and the *total* overhead favors MR-MTP against the
    # fast-detection-equivalent stack
    assert mtp_data + mtp_ctrl < bfd_data + bfd_ctrl
