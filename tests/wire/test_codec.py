"""Wire codec: byte-exact encoding, checksums, round-trips."""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, strategies as st

from repro.bfd.messages import BfdControlPacket, BfdState
from repro.bgp.messages import BgpKeepalive, BgpUpdate, PathAttributes
from repro.core.messages import (
    MtpAdvertise,
    MtpData,
    MtpFullHello,
    MtpJoin,
    MtpKeepalive,
    MtpRestored,
    MtpUnreachable,
    MtpUpdateLost,
)
from repro.core.vid import Vid
from repro.stack.addresses import (
    BROADCAST_MAC,
    Ipv4Address,
    Ipv4Network,
    MacAddress,
)
from repro.stack.arp import ArpMessage, ArpOp
from repro.stack.ethernet import (
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    ETHERTYPE_MTP,
    EthernetFrame,
)
from repro.stack.ipv4 import Ipv4Packet, PROTO_TCP, PROTO_UDP
from repro.stack.payload import RawBytes
from repro.stack.tcp_segment import TcpFlags, TcpSegment
from repro.stack.udp import UdpDatagram
from repro.traffic.generator import SeqPayload
from repro.bgp import encoding as bgp
from repro.bgp.messages import BgpOpen
from repro.stack.icmp import IcmpMessage, IcmpType
from repro.wire import codec
from repro.wire.codec import (
    WireError,
    decode_bfd,
    decode_frame,
    decode_ipv4,
    decode_mtp_message,
    encode_bfd,
    encode_frame,
    encode_ipv4,
    encode_mtp_message,
    internet_checksum,
)

MAC_A = MacAddress.from_index(1)
MAC_B = MacAddress.from_index(2)
IP_A = Ipv4Address.parse("172.16.0.0")
IP_B = Ipv4Address.parse("172.16.0.1")


class TestChecksum:
    def test_rfc1071_example(self):
        # classic example: 0x0001 + 0xf203 + 0xf4f5 + 0xf6f7 -> 0x220d
        blob = bytes.fromhex("0001f203f4f5f6f7")
        assert internet_checksum(blob) == 0x220D

    def test_checksum_of_checksummed_data_is_zero(self):
        blob = bytes.fromhex("0001f203f4f5f6f7")
        check = internet_checksum(blob)
        assert internet_checksum(blob + struct.pack("!H", check)) == 0

    def test_odd_length_padded(self):
        assert internet_checksum(b"\xff") == internet_checksum(b"\xff\x00")


class TestBfdCodec:
    def test_is_24_bytes(self):
        packet = BfdControlPacket(BfdState.UP, 3, 1, 2, 100_000, 100_000)
        assert len(encode_bfd(packet)) == 24

    def test_roundtrip(self):
        packet = BfdControlPacket(BfdState.INIT, 5, 42, 99, 50_000, 60_000,
                                  poll=True)
        assert decode_bfd(encode_bfd(packet)) == packet

    def test_rejects_short(self):
        with pytest.raises(WireError):
            decode_bfd(b"\x00" * 10)


class TestMtpCodec:
    def test_keepalive_is_the_paper_byte(self):
        assert encode_mtp_message(MtpKeepalive()) == b"\x06"

    @pytest.mark.parametrize("message", [
        MtpKeepalive(),
        MtpFullHello(tier=3),
        MtpFullHello(tier=2, gen=9),
        MtpAdvertise(vids=(Vid.parse("11"), Vid.parse("12.1"))),
        MtpJoin(vids=(Vid.parse("11.1.2"),)),
        MtpUpdateLost(vids=(Vid.parse("11.1"), Vid.parse("12.1"))),
        MtpUnreachable(roots=(11, 300)),
        MtpRestored(roots=(14,)),
    ])
    def test_roundtrip(self, message):
        blob = encode_mtp_message(message)
        assert decode_mtp_message(blob) == message
        # the simulator's wire_size model matches the real encoding
        assert len(blob) == message.wire_size

    def test_data_roundtrip_with_inner_packet(self):
        inner = Ipv4Packet(Ipv4Address.parse("192.168.11.1"),
                           Ipv4Address.parse("192.168.14.1"),
                           PROTO_UDP, UdpDatagram(40000, 7777, SeqPayload(5, 100)))
        message = MtpData(src_root=11, dst_root=14, packet=inner)
        blob = encode_mtp_message(message)
        assert len(blob) == message.wire_size
        decoded = decode_mtp_message(blob)
        assert decoded.src_root == 11 and decoded.dst_root == 14
        assert decoded.packet.payload.payload.seq == 5


class TestIpCodec:
    def test_ipv4_header_checksum_valid(self):
        packet = Ipv4Packet(IP_A, IP_B, PROTO_UDP,
                            UdpDatagram(1, 2, RawBytes(10)))
        blob = encode_ipv4(packet)
        assert internet_checksum(blob[:20]) == 0

    def test_corrupted_header_detected(self):
        packet = Ipv4Packet(IP_A, IP_B, PROTO_UDP,
                            UdpDatagram(1, 2, RawBytes(10)))
        blob = bytearray(encode_ipv4(packet))
        blob[8] ^= 0xFF  # flip the TTL
        with pytest.raises(WireError):
            decode_ipv4(bytes(blob))

    def test_udp_bfd_roundtrip(self):
        bfd = BfdControlPacket(BfdState.UP, 3, 7, 8, 100_000, 100_000)
        packet = Ipv4Packet(IP_A, IP_B, PROTO_UDP,
                            UdpDatagram(49152, 3784, bfd), ttl=255)
        decoded = decode_ipv4(encode_ipv4(packet))
        assert decoded == packet

    def test_tcp_bgp_roundtrip(self):
        update = BgpUpdate(
            withdrawn=(Ipv4Network.parse("192.168.11.0/24"),),
            nlri=(Ipv4Network.parse("192.168.12.0/24"),),
            attributes=PathAttributes(as_path=(64513,), next_hop=IP_A),
        )
        seg = TcpSegment(179, 50000, seq=1000, ack=2000,
                         flags=TcpFlags.ACK | TcpFlags.PSH, payload=update)
        packet = Ipv4Packet(IP_A, IP_B, PROTO_TCP, seg)
        decoded = decode_ipv4(encode_ipv4(packet))
        assert decoded.payload.payload == update
        assert decoded.payload.seq == 1000

    def test_tcp_lengths_match_model(self):
        """Encoded TCP sizes equal the simulator's wire_size model for
        both SYN (40 B header) and established (32 B header) segments."""
        syn = TcpSegment(50000, 179, seq=0, ack=0, flags=TcpFlags.SYN)
        ka = TcpSegment(179, 50000, seq=1, ack=1,
                        flags=TcpFlags.ACK | TcpFlags.PSH,
                        payload=BgpKeepalive())
        for seg in (syn, ka):
            packet = Ipv4Packet(IP_A, IP_B, PROTO_TCP, seg)
            assert len(encode_ipv4(packet)) == packet.wire_size


class TestFrameCodec:
    def test_mtp_keepalive_frame_padded_to_60(self):
        frame = EthernetFrame(BROADCAST_MAC, MAC_A, ETHERTYPE_MTP,
                              MtpKeepalive())
        blob = encode_frame(frame)
        assert len(blob) == 60
        assert blob[14] == 0x06  # the Fig. 10 payload byte
        assert blob[12:14] == b"\x88\x50"
        assert blob[:6] == b"\xff" * 6

    def test_unpadded_option(self):
        frame = EthernetFrame(BROADCAST_MAC, MAC_A, ETHERTYPE_MTP,
                              MtpKeepalive())
        assert len(encode_frame(frame, pad_to_min=False)) == 15

    def test_arp_roundtrip(self):
        msg = ArpMessage(ArpOp.REQUEST, MAC_A, IP_A, IP_B)
        frame = EthernetFrame(BROADCAST_MAC, MAC_A, ETHERTYPE_ARP, msg)
        decoded = decode_frame(encode_frame(frame), payload_len=28)
        assert decoded.payload == msg

    def test_ip_frame_roundtrip_through_padding(self):
        """IPv4 self-describes its length, so min-frame padding does not
        corrupt decoding."""
        packet = Ipv4Packet(IP_A, IP_B, PROTO_UDP,
                            UdpDatagram(40000, 7777, SeqPayload(1, 8)))
        frame = EthernetFrame(MAC_B, MAC_A, ETHERTYPE_IPV4, packet)
        decoded = decode_frame(encode_frame(frame))
        assert decoded.payload == packet

    def test_encoded_length_matches_padded_wire_size(self):
        packet = Ipv4Packet(IP_A, IP_B, PROTO_UDP,
                            UdpDatagram(1, 2, RawBytes(100)))
        frame = EthernetFrame(MAC_B, MAC_A, ETHERTYPE_IPV4, packet)
        assert len(encode_frame(frame)) == frame.padded_wire_size

    @given(
        vids=st.lists(
            st.builds(
                Vid,
                st.lists(st.integers(min_value=1, max_value=65535),
                         min_size=1, max_size=4).map(tuple),
            ),
            min_size=1, max_size=5, unique=True,
        )
    )
    def test_mtp_vid_list_roundtrip_property(self, vids):
        message = MtpAdvertise(vids=tuple(vids))
        frame = EthernetFrame(BROADCAST_MAC, MAC_A, ETHERTYPE_MTP, message)
        decoded = decode_frame(encode_frame(frame),
                               payload_len=message.wire_size)
        assert decoded.payload == message


class TestIcmpCodec:
    def test_echo_roundtrip(self):
        from repro.stack.icmp import IcmpMessage, IcmpType
        from repro.wire.codec import decode_icmp, encode_icmp

        message = IcmpMessage(IcmpType.ECHO_REQUEST, identifier=7,
                              sequence=3, data_bytes=56)
        blob = encode_icmp(message)
        assert len(blob) == message.wire_size == 64
        assert decode_icmp(blob) == message

    def test_error_roundtrip(self):
        from repro.stack.icmp import IcmpMessage, IcmpType
        from repro.wire.codec import decode_icmp, encode_icmp

        message = IcmpMessage(IcmpType.TIME_EXCEEDED, quoted_bytes=28)
        assert decode_icmp(encode_icmp(message)) == message

    def test_checksum_valid(self):
        from repro.stack.icmp import IcmpMessage, IcmpType
        from repro.wire.codec import encode_icmp, internet_checksum

        blob = encode_icmp(IcmpMessage(IcmpType.ECHO_REPLY, identifier=1,
                                       sequence=2, data_bytes=10))
        assert internet_checksum(blob) == 0

    def test_ping_packet_through_frame_codec(self):
        from repro.stack.icmp import IcmpMessage, IcmpType
        from repro.stack.ipv4 import PROTO_ICMP

        packet = Ipv4Packet(IP_A, IP_B, PROTO_ICMP,
                            IcmpMessage(IcmpType.ECHO_REQUEST, identifier=9,
                                        sequence=1, data_bytes=56))
        frame = EthernetFrame(MAC_B, MAC_A, ETHERTYPE_IPV4, packet)
        decoded = decode_frame(encode_frame(frame))
        assert decoded.payload == packet


class TestDefaultUnreachableCodec:
    def test_unreachable_default_roundtrip(self):
        from repro.core.messages import MtpUnreachableDefault
        from repro.wire.codec import decode_mtp_message, encode_mtp_message

        for exceptions in ((), (11,), (11, 12, 300)):
            message = MtpUnreachableDefault(except_roots=exceptions)
            blob = encode_mtp_message(message)
            assert len(blob) == message.wire_size
            assert decode_mtp_message(blob) == message

    def test_restored_default_roundtrip(self):
        from repro.core.messages import MtpRestoredDefault
        from repro.wire.codec import decode_mtp_message, encode_mtp_message

        message = MtpRestoredDefault()
        blob = encode_mtp_message(message)
        assert len(blob) == message.wire_size == 1
        assert decode_mtp_message(blob) == message

    def test_double_failure_capture_exports(self, tmp_path):
        """A run exercising the default-unreachability path exports to
        pcap without codec errors."""
        from repro.harness.experiments import build_and_converge
        from repro.harness.failures import FailureInjector
        from repro.net.capture import Capture
        from repro.topology.clos import two_pod_params
        from repro.wire.pcap import read_pcap, write_capture
        from repro.wire.codec import decode_frame

        world, topo, dep = build_and_converge(two_pod_params(), "mtp")
        agg = topo.aggs[0][0][0]
        link = world.find_link(topo.tors[0][0][0], agg)
        capture = Capture()
        capture.attach((link.end_a, link.end_b))
        injector = FailureInjector(world)
        for top in topo.tops[0][0]:
            injector.cut_link(agg, top)
        world.run_for(2_000_000)
        path = tmp_path / "double.pcap"
        count = write_capture(capture, path)
        assert count > 0
        for ts, blob in read_pcap(path):
            decode_frame(blob)  # every frame must decode


# ----------------------------------------------------------------------
# hostile bytes: a typed error or a value that round-trips, never a crash
# ----------------------------------------------------------------------
def _bgp_segment(message) -> TcpSegment:
    return TcpSegment(179, 40000, 1, 1, TcpFlags.ACK, message)


_UPDATE = BgpUpdate(withdrawn=(Ipv4Network.parse("10.1.0.0/16"),),
                    nlri=(Ipv4Network.parse("10.2.3.0/24"),),
                    attributes=PathAttributes((65001, 65002), IP_A))
_PACKETS = (
    Ipv4Packet(IP_A, IP_B, PROTO_TCP, _bgp_segment(_UPDATE)),
    Ipv4Packet(IP_A, IP_B, PROTO_TCP, _bgp_segment(
        BgpOpen(asn=4_200_000_001, hold_time_s=3, router_id=IP_B))),
    Ipv4Packet(IP_A, IP_B, PROTO_UDP, UdpDatagram(49152, 3784, BfdControlPacket(
        BfdState.UP, 3, 7, 9, 100_000, 100_000))),
    Ipv4Packet(IP_A, IP_B, 1, IcmpMessage(IcmpType.ECHO_REQUEST, 1, 2, 8)),
)
_FRAMES = tuple(EthernetFrame(MAC_B, MAC_A, ETHERTYPE_IPV4, p)
                for p in _PACKETS) + (
    EthernetFrame(MAC_B, MAC_A, ETHERTYPE_ARP, ArpMessage(
        ArpOp.REQUEST, MAC_A, IP_A, IP_B)),
    EthernetFrame(BROADCAST_MAC, MAC_A, ETHERTYPE_MTP, MtpAdvertise(
        vids=(Vid((11, 2)), Vid((300, 1, 4))))),
    EthernetFrame(MAC_B, MAC_A, ETHERTYPE_MTP, MtpData(11, 300, _PACKETS[2])),
    EthernetFrame(MAC_B, MAC_A, ETHERTYPE_MTP, MtpFullHello(tier=2, gen=5)))
_SAMPLES = [encode_frame(f, pad_to_min=False) for f in _FRAMES]

#: decoder -> (encoder, the layer's sample encodings)
_CODECS = {
    decode_frame: (lambda v: encode_frame(v, pad_to_min=False), _SAMPLES),
    decode_ipv4: (encode_ipv4, [b[14:] for b in _SAMPLES]),
    codec.decode_tcp: (lambda v: codec.encode_tcp(v, IP_A, IP_B),
                       [b[34:] for b in _SAMPLES[:2]]),
    codec.decode_udp: (lambda v: codec.encode_udp(v, IP_A, IP_B),
                       [_SAMPLES[2][34:]]),
    decode_bfd: (encode_bfd, [_SAMPLES[2][42:]]),
    codec.decode_icmp: (codec.encode_icmp, [_SAMPLES[3][34:]]),
    codec.decode_arp: (codec.encode_arp, [_SAMPLES[4][14:]]),
    decode_mtp_message: (encode_mtp_message, [b[14:] for b in _SAMPLES[5:]]),
    bgp.decode_message: (bgp.encode_message,
                         [b[66:] for b in _SAMPLES[:2]]),
}


def _mangled(samples):
    """Arbitrary bytes, or a valid encoding cut short and overwritten in
    places — the bytes that reach a decoder's deeper branches."""
    return st.one_of(st.binary(max_size=96), st.builds(
        lambda blob, at, patch, cut: (
            blob[:at] + patch + blob[at + len(patch):])[:cut],
        st.sampled_from(samples), st.integers(0, 100),
        st.binary(max_size=6), st.integers(0, 120)))


@pytest.mark.parametrize("decode", list(_CODECS),
                         ids=lambda f: f"{f.__module__}.{f.__name__}")
@given(data=st.data())
def test_hostile_bytes_decode_to_a_typed_error_or_a_round_trip(decode, data):
    encode, samples = _CODECS[decode]
    blob = data.draw(_mangled(samples))
    # the codec's typed error is WireError; BGP's is ValueError
    typed = ValueError if decode is bgp.decode_message else WireError
    try:
        value = decode(blob)
    except typed:
        return
    assert decode(encode(value)) == value
