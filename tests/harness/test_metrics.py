"""Metric helpers: keepalive classification and report rendering."""

from __future__ import annotations

from pathlib import Path

from repro.bfd.messages import BfdControlPacket, BfdState
from repro.bgp.messages import BgpKeepalive, BgpUpdate
from repro.core.messages import MtpFullHello, MtpKeepalive
from repro.harness.metrics import classify_keepalive_frame
from repro.harness.report import render_table, save_result
from repro.stack.addresses import BROADCAST_MAC, Ipv4Address, MacAddress
from repro.stack.ethernet import ETHERTYPE_IPV4, ETHERTYPE_MTP, EthernetFrame
from repro.stack.ipv4 import Ipv4Packet, PROTO_TCP, PROTO_UDP
from repro.stack.addresses import Ipv4Network
from repro.stack.payload import RawBytes
from repro.stack.tcp_segment import TcpFlags, TcpSegment
from repro.stack.udp import UdpDatagram

MAC = MacAddress.from_index(3)
IP_A = Ipv4Address.parse("172.16.0.0")
IP_B = Ipv4Address.parse("172.16.0.1")


def eth(ethertype, payload):
    return EthernetFrame(BROADCAST_MAC, MAC, ethertype, payload)


class TestClassify:
    def test_mtp_keepalive(self):
        assert classify_keepalive_frame(eth(ETHERTYPE_MTP, MtpKeepalive())) == "mtp"

    def test_mtp_hello_not_counted(self):
        assert classify_keepalive_frame(
            eth(ETHERTYPE_MTP, MtpFullHello(tier=2))) is None

    def test_bfd(self):
        packet = BfdControlPacket(BfdState.UP, 3, 1, 2, 100, 100)
        frame = eth(ETHERTYPE_IPV4, Ipv4Packet(
            IP_A, IP_B, PROTO_UDP, UdpDatagram(49152, 3784, packet)))
        assert classify_keepalive_frame(frame) == "bfd"

    def test_other_udp_not_bfd(self):
        frame = eth(ETHERTYPE_IPV4, Ipv4Packet(
            IP_A, IP_B, PROTO_UDP, UdpDatagram(1, 7777, RawBytes(24))))
        assert classify_keepalive_frame(frame) is None

    def test_bgp_keepalive(self):
        seg = TcpSegment(179, 50000, seq=1, ack=1, flags=TcpFlags.ACK,
                         payload=BgpKeepalive())
        frame = eth(ETHERTYPE_IPV4, Ipv4Packet(IP_A, IP_B, PROTO_TCP, seg))
        assert classify_keepalive_frame(frame) == "bgp"

    def test_pure_tcp_ack_on_bgp_session(self):
        seg = TcpSegment(50000, 179, seq=1, ack=1, flags=TcpFlags.ACK)
        frame = eth(ETHERTYPE_IPV4, Ipv4Packet(IP_A, IP_B, PROTO_TCP, seg))
        assert classify_keepalive_frame(frame) == "tcp-ack"

    def test_bgp_update_is_not_keepalive(self):
        update = BgpUpdate(withdrawn=(Ipv4Network.parse("10.0.0.0/8"),))
        seg = TcpSegment(179, 50000, seq=1, ack=1, flags=TcpFlags.ACK,
                         payload=update)
        frame = eth(ETHERTYPE_IPV4, Ipv4Packet(IP_A, IP_B, PROTO_TCP, seg))
        assert classify_keepalive_frame(frame) is None

    def test_non_bgp_tcp_ignored(self):
        seg = TcpSegment(1000, 2000, seq=1, ack=1, flags=TcpFlags.ACK)
        frame = eth(ETHERTYPE_IPV4, Ipv4Packet(IP_A, IP_B, PROTO_TCP, seg))
        assert classify_keepalive_frame(frame) is None


class TestReport:
    def test_render_table_alignment(self):
        text = render_table("Title", ["a", "long-col"],
                            [[1, 2], ["wide-value", 3]])
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert lines[1] == "====="
        assert "a" in lines[2] and "long-col" in lines[2]
        assert len({len(lines[3].split()[0])}) == 1  # separator present

    def test_render_table_note(self):
        text = render_table("T", ["x"], [[1]], note="a footnote")
        assert text.endswith("a footnote")

    def test_save_result_writes_file(self, tmp_path: Path):
        path = save_result(tmp_path / "sub", "fig_test", "hello")
        assert path.read_text() == "hello\n"
        assert path.name == "fig_test.txt"
