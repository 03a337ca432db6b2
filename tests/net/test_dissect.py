"""Frame dissection (the Wireshark-view substitute for Figs. 9/10)."""

from __future__ import annotations

from repro.bfd.messages import BfdControlPacket, BfdState
from repro.bgp.messages import BgpKeepalive, BgpOpen, BgpUpdate, PathAttributes
from repro.core.messages import (
    MtpAdvertise,
    MtpData,
    MtpKeepalive,
    MtpUnreachable,
)
from repro.core.vid import Vid
from repro.net.capture import Capture
from repro.net.dissect import dissect, dissect_capture
from repro.stack.addresses import BROADCAST_MAC, Ipv4Address, MacAddress
from repro.stack.ethernet import ETHERTYPE_IPV4, ETHERTYPE_MTP, EthernetFrame
from repro.stack.ipv4 import Ipv4Packet, PROTO_TCP, PROTO_UDP
from repro.stack.payload import RawBytes
from repro.stack.tcp_segment import TcpFlags, TcpSegment
from repro.stack.udp import UdpDatagram

MAC = MacAddress.from_index(9)
IP_A = Ipv4Address.parse("172.16.0.0")
IP_B = Ipv4Address.parse("172.16.0.1")


def eth(ethertype, payload):
    return EthernetFrame(BROADCAST_MAC, MAC, ethertype, payload)


def test_mtp_keepalive_renders_like_fig10():
    text = dissect(eth(ETHERTYPE_MTP, MtpKeepalive()))
    assert "Broadcast" in text
    assert "Unknown (0x8850)" in text
    assert "Data: 06" in text
    assert "[Length: 1]" in text


def test_bfd_renders_like_fig9():
    packet = BfdControlPacket(BfdState.UP, 3, 7, 9, 100_000, 100_000)
    frame = eth(ETHERTYPE_IPV4, Ipv4Packet(
        IP_A, IP_B, PROTO_UDP, UdpDatagram(49152, 3784, packet), ttl=255))
    text = dissect(frame)
    assert "BFD Control message" in text
    assert "State: UP" in text
    assert "Detect Time Multiplier: 3" in text
    assert "My Discriminator: 0x00000007" in text
    assert "Frame length: 66 bytes" in text


def test_bgp_keepalive_renders():
    seg = TcpSegment(179, 50000, seq=1, ack=1,
                     flags=TcpFlags.ACK | TcpFlags.PSH, payload=BgpKeepalive())
    text = dissect(eth(ETHERTYPE_IPV4, Ipv4Packet(IP_A, IP_B, PROTO_TCP, seg)))
    assert "KEEPALIVE Message" in text
    assert "Frame length: 85 bytes" in text


def test_bgp_update_renders_routes():
    from repro.stack.addresses import Ipv4Network

    update = BgpUpdate(
        withdrawn=(Ipv4Network.parse("192.168.11.0/24"),),
        nlri=(Ipv4Network.parse("192.168.12.0/24"),),
        attributes=PathAttributes(as_path=(64513, 65001), next_hop=IP_A),
    )
    seg = TcpSegment(179, 50000, seq=1, ack=1, flags=TcpFlags.ACK,
                     payload=update)
    text = dissect(eth(ETHERTYPE_IPV4, Ipv4Packet(IP_A, IP_B, PROTO_TCP, seg)))
    assert "UPDATE Message" in text
    assert "Withdrawn route: 192.168.11.0/24" in text
    assert "NLRI: 192.168.12.0/24" in text
    assert "AS_PATH [64513, 65001]" in text


def test_bgp_open_renders():
    seg = TcpSegment(179, 50000, seq=1, ack=1, flags=TcpFlags.ACK,
                     payload=BgpOpen(64512, 3, IP_A))
    text = dissect(eth(ETHERTYPE_IPV4, Ipv4Packet(IP_A, IP_B, PROTO_TCP, seg)))
    assert "OPEN Message" in text and "My AS: 64512" in text


def test_mtp_control_messages_render():
    adv = dissect(eth(ETHERTYPE_MTP, MtpAdvertise(vids=(Vid.parse("11.1"),))))
    assert "Advertise" in adv and "11.1" in adv
    unre = dissect(eth(ETHERTYPE_MTP, MtpUnreachable(roots=(11, 12))))
    assert "unreachable" in unre and "11, 12" in unre


def test_mtp_data_renders_inner_packet():
    inner = Ipv4Packet(Ipv4Address.parse("192.168.11.1"),
                       Ipv4Address.parse("192.168.14.1"),
                       PROTO_UDP, UdpDatagram(40000, 7777, RawBytes(100)))
    text = dissect(eth(ETHERTYPE_MTP, MtpData(11, 14, inner)))
    assert "Source ToR VID: 11" in text
    assert "Destination ToR VID: 14" in text
    assert "192.168.14.1" in text


def test_dissect_capture_summarizes(world):
    cap = Capture()
    a = world.add_node("A")
    b = world.add_node("B")
    link = world.connect(a, b)
    cap.attach((link.end_a,))
    link.end_a.send(eth(ETHERTYPE_MTP, MtpKeepalive()))
    world.run()
    text = dissect_capture(cap.records)
    assert "A:eth1" in text and "[tx]" in text and "len=15" in text


def test_dissect_capture_limit(world):
    cap = Capture()
    a = world.add_node("A")
    b = world.add_node("B")
    link = world.connect(a, b)
    cap.attach((link.end_a,))
    for _ in range(30):
        link.end_a.send(eth(ETHERTYPE_MTP, MtpKeepalive()))
    world.run()
    text = dissect_capture(cap.records, limit=5)
    assert "..." in text
    assert text.count("\n") == 5
