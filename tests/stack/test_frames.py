"""Wire-size arithmetic: the numbers the paper reads off Wireshark."""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.bgp.messages import BgpKeepalive
from repro.stack.addresses import BROADCAST_MAC, Ipv4Address, MacAddress
from repro.stack.arp import ArpMessage, ArpOp
from repro.stack.ethernet import (
    ETHERNET_MIN_FRAME_BYTES,
    ETHERTYPE_IPV4,
    ETHERTYPE_MTP,
    EthernetFrame,
)
from repro.stack.ipv4 import Ipv4Packet, PROTO_TCP, PROTO_UDP
from repro.stack.payload import RawBytes
from repro.stack.tcp_segment import TcpFlags, TcpSegment
from repro.stack.udp import UdpDatagram

MAC_A = MacAddress.from_index(1)
MAC_B = MacAddress.from_index(2)
IP_A = Ipv4Address.parse("10.0.0.1")
IP_B = Ipv4Address.parse("10.0.0.2")


def test_udp_over_ip_over_ethernet_composes():
    """14 + 20 + 8 + payload."""
    dgram = UdpDatagram(3784, 3784, RawBytes(24))
    pkt = Ipv4Packet(IP_A, IP_B, PROTO_UDP, dgram)
    frame = EthernetFrame(MAC_B, MAC_A, ETHERTYPE_IPV4, pkt)
    assert dgram.wire_size == 32
    assert pkt.wire_size == 52
    assert frame.wire_size == 66  # the paper's BFD control packet size


def test_bgp_keepalive_is_85_bytes_at_l2():
    """14 + 20 + 32 + 19 = 85 (paper section VII.F)."""
    seg = TcpSegment(179, 50000, seq=1, ack=1, flags=TcpFlags.ACK | TcpFlags.PSH,
                     payload=RawBytes(19))
    pkt = Ipv4Packet(IP_A, IP_B, PROTO_TCP, seg)
    frame = EthernetFrame(MAC_B, MAC_A, ETHERTYPE_IPV4, pkt)
    assert frame.wire_size == 85


def test_real_bgp_keepalive_composes_to_85():
    """The same sum with the BGP message itself as the innermost layer."""
    seg = TcpSegment(179, 50000, seq=1, ack=1, flags=TcpFlags.ACK | TcpFlags.PSH,
                     payload=BgpKeepalive())
    assert (seg.data_len, seg.header_size, seg.wire_size) == (19, 32, 51)
    pkt = Ipv4Packet(IP_A, IP_B, PROTO_TCP, seg)
    assert pkt.wire_size == 71
    frame = EthernetFrame(MAC_B, MAC_A, ETHERTYPE_IPV4, pkt)
    assert frame.wire_size == frame.padded_wire_size == 85


def test_mtp_keepalive_is_15_bytes_unpadded():
    """14 + 1 (paper Fig. 10: 1-byte payload, value 0x06)."""
    frame = EthernetFrame(BROADCAST_MAC, MAC_A, ETHERTYPE_MTP, RawBytes(1))
    assert frame.wire_size == 15
    assert frame.padded_wire_size == ETHERNET_MIN_FRAME_BYTES


def test_pure_tcp_ack_is_66_bytes():
    seg = TcpSegment(179, 50000, seq=1, ack=1, flags=TcpFlags.ACK)
    pkt = Ipv4Packet(IP_A, IP_B, PROTO_TCP, seg)
    frame = EthernetFrame(MAC_B, MAC_A, ETHERTYPE_IPV4, pkt)
    assert frame.wire_size == 66


def test_syn_carries_full_option_set():
    syn = TcpSegment(50000, 179, seq=0, ack=0, flags=TcpFlags.SYN)
    assert syn.header_size == 40
    assert syn.seq_space == 1


def test_fin_consumes_sequence_space():
    fin = TcpSegment(1, 2, seq=10, ack=0, flags=TcpFlags.FIN | TcpFlags.ACK)
    assert fin.seq_space == 1
    data = TcpSegment(1, 2, seq=10, ack=0, flags=TcpFlags.ACK, payload=RawBytes(100))
    assert data.seq_space == 100


@pytest.mark.parametrize("flags, data, header, seq_space", [
    (TcpFlags.SYN, 0, 40, 1),
    (TcpFlags.SYN | TcpFlags.ACK, 0, 40, 1),
    (TcpFlags.ACK, 0, 32, 0),
    (TcpFlags.ACK | TcpFlags.PSH, 19, 32, 19),
    (TcpFlags.FIN | TcpFlags.ACK, 7, 32, 8),
    (TcpFlags.SYN | TcpFlags.FIN, 3, 40, 5),
    (TcpFlags.RST, 0, 32, 0),
])
def test_tcp_sizes_by_flags(flags, data, header, seq_space):
    seg = TcpSegment(1, 2, seq=10, ack=0, flags=flags, payload=RawBytes(data))
    assert seg.header_size == header
    assert seg.data_len == data
    assert seg.wire_size == header + data
    assert seg.seq_space == seq_space


def test_copies_are_sized_from_their_own_fields():
    """Sizes are set when an object is built; a copy must not carry the
    original's."""
    pkt = Ipv4Packet(IP_A, IP_B, PROTO_UDP, RawBytes(10), ttl=9)
    assert pkt.wire_size == 30
    assert pkt.decrement_ttl().wire_size == 30
    assert replace(pkt, payload=RawBytes(100)).wire_size == 120
    frame = EthernetFrame(MAC_B, MAC_A, ETHERTYPE_IPV4, pkt)
    bigger = replace(frame, payload=replace(pkt, payload=RawBytes(100)))
    assert (frame.wire_size, frame.padded_wire_size) == (44, 60)
    assert (bigger.wire_size, bigger.padded_wire_size) == (134, 134)
    ack = TcpSegment(1, 2, seq=0, ack=0, flags=TcpFlags.ACK)
    syn = replace(ack, flags=TcpFlags.SYN)
    assert (ack.header_size, ack.seq_space) == (32, 0)
    assert (syn.header_size, syn.seq_space) == (40, 1)
    dgram = UdpDatagram(1, 2, RawBytes(24))
    assert replace(dgram, payload=RawBytes(1)).wire_size == 9
    with pytest.raises(ValueError):  # a size cannot be passed in
        replace(pkt, wire_size=1)
    with pytest.raises(TypeError):
        Ipv4Packet(IP_A, IP_B, PROTO_UDP, RawBytes(10), wire_size=1)


def test_sizes_are_not_part_of_a_frames_value():
    """Equality, hash, repr and pickling see the protocol fields only."""
    def build():
        seg = TcpSegment(179, 50000, seq=1, ack=1, flags=TcpFlags.ACK,
                         payload=RawBytes(19))
        pkt = Ipv4Packet(IP_A, IP_B, PROTO_TCP, seg)
        return EthernetFrame(MAC_B, MAC_A, ETHERTYPE_IPV4, pkt)

    one, other = build(), build()
    assert one == other and hash(one) == hash(other)
    assert repr(one) == repr(other) and "wire_size" not in repr(one)
    assert "seq_space" not in repr(one.payload.payload)
    copy = pickle.loads(pickle.dumps(one))
    assert copy == one and hash(copy) == hash(one)
    assert copy.wire_size == 85 and copy.payload.payload.seq_space == 19
    # same fields, different payload size: different value, different size
    assert replace(one, payload=RawBytes(71)) != one


def test_arp_wire_size():
    msg = ArpMessage(ArpOp.REQUEST, MAC_A, IP_A, IP_B)
    assert msg.wire_size == 28
    frame = EthernetFrame(BROADCAST_MAC, MAC_A, 0x0806, msg)
    assert frame.wire_size == 42


def test_ttl_decrement():
    pkt = Ipv4Packet(IP_A, IP_B, PROTO_UDP, RawBytes(0), ttl=2)
    pkt2 = pkt.decrement_ttl()
    assert pkt2.ttl == 1 and pkt.ttl == 2
    with pytest.raises(ValueError):
        pkt2.decrement_ttl().decrement_ttl()


def test_invalid_fields_rejected():
    with pytest.raises(ValueError):
        EthernetFrame(MAC_A, MAC_B, 0x10000, RawBytes(0))
    with pytest.raises(ValueError):
        UdpDatagram(70000, 1, RawBytes(0))
    with pytest.raises(ValueError):
        Ipv4Packet(IP_A, IP_B, 300, RawBytes(0))
    with pytest.raises(ValueError):
        RawBytes(-1)
