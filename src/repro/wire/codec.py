"""Byte-level encoding/decoding of simulated frames.

Encoding is exact: real header layouts, real checksums.  Decoding uses
the same context a dissector would (ethertype, IP protocol, well-known
ports) to rebuild the simulator's typed objects, and round-trips
everything the simulator can send.

Payload bodies the simulator models only by *size* (``RawBytes``,
``SeqPayload``) encode as zero padding (with the sequence number in the
first 8 bytes for ``SeqPayload``), so their lengths — what every byte
count in the paper depends on — are preserved exactly.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.stack.addresses import Ipv4Address, MacAddress
from repro.stack.arp import ArpMessage, ArpOp
from repro.stack.ethernet import (
    ETHERNET_MIN_FRAME_BYTES,
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    ETHERTYPE_MTP,
    EthernetFrame,
)
from repro.stack.icmp import IcmpMessage, IcmpType
from repro.stack.ipv4 import Ipv4Packet, PROTO_ICMP, PROTO_TCP, PROTO_UDP
from repro.stack.payload import Payload, RawBytes
from repro.stack.tcp_segment import (
    TCP_HEADER_BYTES,
    TCP_SYN_HEADER_BYTES,
    TcpFlags,
    TcpSegment,
)
from repro.stack.udp import UdpDatagram
from repro.bfd.messages import BFD_PORT, BFD_VERSION, BfdControlPacket, BfdState
from repro.bgp.encoding import decode_message as decode_bgp
from repro.bgp.encoding import encode_message as encode_bgp
from repro.bgp.messages import BGP_PORT, BgpMessage
from repro.core.messages import (
    MtpAccept,
    MtpAdvertise,
    MtpData,
    MtpFullHello,
    MtpJoin,
    MtpKeepalive,
    MtpMessage,
    MtpOffer,
    MtpRestored,
    MtpRestoredDefault,
    MtpUnreachable,
    MtpUnreachableDefault,
    MtpUpdateLost,
    TYPE_ACCEPT,
    TYPE_ADVERTISE,
    TYPE_DATA,
    TYPE_FULL_HELLO,
    TYPE_JOIN,
    TYPE_KEEPALIVE,
    TYPE_OFFER,
    TYPE_RESTORED,
    TYPE_RESTORED_DEFAULT,
    TYPE_UNREACHABLE,
    TYPE_UNREACHABLE_DEFAULT,
    TYPE_UPDATE_LOST,
)
from repro.core.vid import Vid
from repro.traffic.generator import DEFAULT_TRAFFIC_PORT, SeqPayload


class WireError(ValueError):
    """Encoding/decoding failure."""


def _unpack(fmt: str, blob: bytes, what: str) -> tuple:
    """``struct.unpack`` of the head of ``blob``, which must be long
    enough: hostile bytes raise :class:`WireError`, nothing else."""
    size = struct.calcsize(fmt)
    if len(blob) < size:
        raise WireError(f"short {what}: {len(blob)} < {size} bytes")
    return struct.unpack(fmt, blob[:size])


def _enum(kind, value: int):
    try:
        return kind(value)
    except ValueError:
        raise WireError(f"unknown {kind.__name__} {value}") from None


# ----------------------------------------------------------------------
# checksums
# ----------------------------------------------------------------------
def internet_checksum(blob: bytes) -> int:
    """RFC 1071 ones'-complement sum."""
    if len(blob) % 2:
        blob += b"\x00"
    total = sum(struct.unpack(f"!{len(blob) // 2}H", blob))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def _pseudo_header(src: Ipv4Address, dst: Ipv4Address, proto: int,
                   length: int) -> bytes:
    return struct.pack("!IIBBH", src.value, dst.value, 0, proto, length)


# ----------------------------------------------------------------------
# opaque payloads
# ----------------------------------------------------------------------
def _encode_body(payload: Payload) -> bytes:
    if isinstance(payload, SeqPayload):
        return struct.pack("!Q", payload.seq) + b"\x00" * (payload.size - 8)
    if isinstance(payload, RawBytes):
        return b"\x00" * payload.size
    raise WireError(f"cannot encode payload {payload!r}")


def _decode_body(blob: bytes, dst_port: Optional[int] = None) -> Payload:
    if dst_port == DEFAULT_TRAFFIC_PORT and len(blob) >= 8:
        seq = struct.unpack("!Q", blob[:8])[0]
        return SeqPayload(seq=seq, size=len(blob))
    return RawBytes(len(blob))


# ----------------------------------------------------------------------
# BFD (RFC 5880 section 4.1)
# ----------------------------------------------------------------------
def encode_bfd(packet: BfdControlPacket) -> bytes:
    flags = (packet.poll << 5) | (packet.final << 4)
    byte0 = (BFD_VERSION << 5) | 0  # diag "no diagnostic"
    byte1 = (int(packet.state) << 6) | flags
    return struct.pack(
        "!BBBBIIIII",
        byte0, byte1, packet.detect_mult, 24,
        packet.my_discriminator, packet.your_discriminator,
        packet.desired_min_tx_us, packet.required_min_rx_us, 0,
    )


def decode_bfd(blob: bytes) -> BfdControlPacket:
    if len(blob) < 24:
        raise WireError("short BFD packet")
    byte0, byte1, mult, length, my, your, tx, rx, _echo = struct.unpack(
        "!BBBBIIIII", blob[:24])
    if byte0 >> 5 != BFD_VERSION:
        raise WireError(f"bad BFD version {byte0 >> 5}")
    if length != len(blob):
        raise WireError("BFD length mismatch")
    try:
        return BfdControlPacket(
            state=BfdState(byte1 >> 6),
            detect_mult=mult,
            my_discriminator=my,
            your_discriminator=your,
            desired_min_tx_us=tx,
            required_min_rx_us=rx,
            poll=bool(byte1 & 0x20),
            final=bool(byte1 & 0x10),
        )
    except ValueError as exc:  # a zero detect multiplier or discriminator
        raise WireError(f"bad BFD packet: {exc}") from None


# ----------------------------------------------------------------------
# MR-MTP
# ----------------------------------------------------------------------
def _encode_vids(vids) -> bytes:
    return bytes([len(vids)]) + b"".join(v.encode() for v in vids)


def _decode_vids(blob: bytes, offset: int) -> tuple[tuple[Vid, ...], int]:
    (count,) = _unpack("!B", blob[offset:], "VID list")
    offset += 1
    vids = []
    try:
        for _ in range(count):
            vid, offset = Vid.decode(blob, offset)
            vids.append(vid)
    except IndexError:  # Vid.decode reads past a truncated list
        raise WireError("truncated VID list") from None
    except ValueError as exc:  # an empty VID or a zero component
        raise WireError(f"bad VID: {exc}") from None
    return tuple(vids), offset


def _encode_roots(roots) -> bytes:
    out = bytearray([len(roots)])
    for root in roots:
        if root < 255:
            out.append(root)
        else:
            out += bytes([255, root >> 8, root & 0xFF])
    return bytes(out)


def _decode_roots(blob: bytes, offset: int) -> tuple[tuple[int, ...], int]:
    (count,) = _unpack("!B", blob[offset:], "root list")
    offset += 1
    roots = []
    for _ in range(count):
        (value,) = _unpack("!B", blob[offset:], "root list")
        offset += 1
        if value == 255:
            (value,) = _unpack("!H", blob[offset:], "root list")
            offset += 2
        roots.append(value)
    return tuple(roots), offset


_VID_LIST_TYPES = {
    TYPE_ADVERTISE: MtpAdvertise,
    TYPE_JOIN: MtpJoin,
    TYPE_OFFER: MtpOffer,
    TYPE_ACCEPT: MtpAccept,
    TYPE_UPDATE_LOST: MtpUpdateLost,
}
_ROOT_LIST_TYPES = {
    TYPE_UNREACHABLE: MtpUnreachable,
    TYPE_RESTORED: MtpRestored,
}


def encode_mtp_message(message: MtpMessage) -> bytes:
    head = bytes([message.type_code])
    if isinstance(message, (MtpKeepalive, MtpRestoredDefault)):
        return head
    if isinstance(message, MtpFullHello):
        return head + bytes([message.tier, message.gen & 0xFF])
    if isinstance(message, MtpUnreachableDefault):
        return head + _encode_roots(message.except_roots)
    if isinstance(message, tuple(_VID_LIST_TYPES.values())):
        return head + _encode_vids(message.vids)
    if isinstance(message, tuple(_ROOT_LIST_TYPES.values())):
        return head + _encode_roots(message.roots)
    if isinstance(message, MtpData):
        return (head
                + _encode_roots((message.src_root,))
                + _encode_roots((message.dst_root,))
                + encode_ipv4(message.packet))
    raise WireError(f"cannot encode MTP message {message!r}")


def decode_mtp_message(blob: bytes) -> MtpMessage:
    if not blob:
        raise WireError("empty MTP payload")
    type_code = blob[0]
    if type_code == TYPE_KEEPALIVE:
        return MtpKeepalive()
    if type_code == TYPE_RESTORED_DEFAULT:
        return MtpRestoredDefault()
    if type_code == TYPE_UNREACHABLE_DEFAULT:
        roots, _ = _decode_roots(blob, 1)
        return MtpUnreachableDefault(except_roots=roots)
    if type_code == TYPE_FULL_HELLO:
        tier, gen = _unpack("!BB", blob[1:], "full hello")
        return MtpFullHello(tier=tier, gen=gen)
    if type_code in _VID_LIST_TYPES:
        vids, _ = _decode_vids(blob, 1)
        if not vids:
            raise WireError("empty VID list")
        return _VID_LIST_TYPES[type_code](vids=vids)
    if type_code in _ROOT_LIST_TYPES:
        roots, _ = _decode_roots(blob, 1)
        if not roots:
            raise WireError("empty root list")
        return _ROOT_LIST_TYPES[type_code](roots=roots)
    if type_code == TYPE_DATA:
        src_roots, offset = _decode_roots(blob, 1)
        dst_roots, offset = _decode_roots(blob, offset)
        if len(src_roots) != 1 or len(dst_roots) != 1:
            raise WireError("MTP data needs one source and one dest root")
        (src_root,), (dst_root,) = src_roots, dst_roots
        packet = decode_ipv4(blob[offset:])
        return MtpData(src_root=src_root, dst_root=dst_root, packet=packet)
    raise WireError(f"unknown MTP type {type_code:#x}")


# ----------------------------------------------------------------------
# ICMP (RFC 792)
# ----------------------------------------------------------------------
def encode_icmp(message: IcmpMessage) -> bytes:
    body = b"\x00" * (message.quoted_bytes + message.data_bytes)
    header = struct.pack("!BBHHH", int(message.icmp_type), 0, 0,
                         message.identifier, message.sequence)
    checksum = internet_checksum(header + body)
    header = struct.pack("!BBHHH", int(message.icmp_type), 0, checksum,
                         message.identifier, message.sequence)
    return header + body


def decode_icmp(blob: bytes) -> IcmpMessage:
    if len(blob) < 8:
        raise WireError("short ICMP message")
    icmp_type, _code, _checksum, identifier, sequence = struct.unpack(
        "!BBHHH", blob[:8])
    kind = _enum(IcmpType, icmp_type)
    rest = len(blob) - 8
    if kind in (IcmpType.ECHO_REQUEST, IcmpType.ECHO_REPLY):
        return IcmpMessage(kind, identifier=identifier, sequence=sequence,
                           data_bytes=rest)
    return IcmpMessage(kind, quoted_bytes=rest)


# ----------------------------------------------------------------------
# transports
# ----------------------------------------------------------------------
def encode_udp(datagram: UdpDatagram, src: Ipv4Address, dst: Ipv4Address) -> bytes:
    if isinstance(datagram.payload, BfdControlPacket):
        body = encode_bfd(datagram.payload)
    else:
        body = _encode_body(datagram.payload)
    length = 8 + len(body)
    header = struct.pack("!HHHH", datagram.src_port, datagram.dst_port,
                         length, 0)
    checksum = internet_checksum(
        _pseudo_header(src, dst, PROTO_UDP, length) + header + body)
    header = struct.pack("!HHHH", datagram.src_port, datagram.dst_port,
                         length, checksum)
    return header + body


def decode_udp(blob: bytes) -> UdpDatagram:
    src_port, dst_port, length, _checksum = _unpack("!HHHH", blob, "UDP header")
    body = blob[8:length]
    if dst_port == BFD_PORT or src_port == BFD_PORT:
        payload: Payload = decode_bfd(body)
    else:
        payload = _decode_body(body, dst_port)
    return UdpDatagram(src_port=src_port, dst_port=dst_port, payload=payload)


_TS_OPTION = b"\x01\x01\x08\x0a" + b"\x00" * 8  # NOP NOP TS(10 bytes)


def encode_tcp(segment: TcpSegment, src: Ipv4Address, dst: Ipv4Address) -> bytes:
    flags = 0
    if TcpFlags.FIN in segment.flags:
        flags |= 0x01
    if TcpFlags.SYN in segment.flags:
        flags |= 0x02
    if TcpFlags.RST in segment.flags:
        flags |= 0x04
    if TcpFlags.PSH in segment.flags:
        flags |= 0x08
    if TcpFlags.ACK in segment.flags:
        flags |= 0x10
    if TcpFlags.SYN in segment.flags:
        # MSS(4) WS(3) NOP(1) SACK-permitted(2) TS(10) = 20 option bytes
        options = (b"\x02\x04\x05\xb4"      # MSS 1460
                   + b"\x03\x03\x07"          # window scale 7
                   + b"\x01"                  # NOP
                   + b"\x04\x02"              # SACK permitted
                   + b"\x08\x0a" + b"\x00" * 8)  # timestamps
        header_len = TCP_SYN_HEADER_BYTES
    else:
        options = _TS_OPTION
        header_len = TCP_HEADER_BYTES
    if isinstance(segment.payload, BgpMessage):
        body = encode_bgp(segment.payload)
    else:
        body = _encode_body(segment.payload)
    offset_flags = ((header_len // 4) << 12) | flags
    header = struct.pack(
        "!HHIIHHHH", segment.src_port, segment.dst_port,
        segment.seq & 0xFFFFFFFF, segment.ack & 0xFFFFFFFF,
        offset_flags, segment.window, 0, 0,
    ) + options
    blob = header + body
    checksum = internet_checksum(
        _pseudo_header(src, dst, PROTO_TCP, len(blob)) + blob)
    header = struct.pack(
        "!HHIIHHHH", segment.src_port, segment.dst_port,
        segment.seq & 0xFFFFFFFF, segment.ack & 0xFFFFFFFF,
        offset_flags, segment.window, checksum, 0,
    ) + options
    return header + body


def decode_tcp(blob: bytes) -> TcpSegment:
    (src_port, dst_port, seq, ack, offset_flags, window, _checksum,
     _urgent) = _unpack("!HHIIHHHH", blob, "TCP header")
    header_len = (offset_flags >> 12) * 4
    if not 20 <= header_len <= len(blob):
        raise WireError(f"bad TCP data offset {header_len}")
    raw_flags = offset_flags & 0x3F
    flags = TcpFlags.NONE
    if raw_flags & 0x01:
        flags |= TcpFlags.FIN
    if raw_flags & 0x02:
        flags |= TcpFlags.SYN
    if raw_flags & 0x04:
        flags |= TcpFlags.RST
    if raw_flags & 0x08:
        flags |= TcpFlags.PSH
    if raw_flags & 0x10:
        flags |= TcpFlags.ACK
    body = blob[header_len:]
    payload: Payload
    if body and BGP_PORT in (src_port, dst_port):
        try:
            payload = decode_bgp(body)
        except ValueError as exc:
            raise WireError(f"bad BGP message: {exc}") from exc
    else:
        payload = _decode_body(body)
    return TcpSegment(src_port=src_port, dst_port=dst_port, seq=seq,
                      ack=ack, flags=flags, payload=payload, window=window)


# ----------------------------------------------------------------------
# network layer
# ----------------------------------------------------------------------
def encode_ipv4(packet: Ipv4Packet) -> bytes:
    if isinstance(packet.payload, UdpDatagram):
        body = encode_udp(packet.payload, packet.src, packet.dst)
    elif isinstance(packet.payload, TcpSegment):
        body = encode_tcp(packet.payload, packet.src, packet.dst)
    elif isinstance(packet.payload, IcmpMessage):
        body = encode_icmp(packet.payload)
    else:
        body = _encode_body(packet.payload)
    total_len = 20 + len(body)
    header = struct.pack(
        "!BBHHHBBHII", 0x45, 0, total_len, 0, 0,
        packet.ttl, packet.proto, 0, packet.src.value, packet.dst.value,
    )
    checksum = internet_checksum(header)
    header = struct.pack(
        "!BBHHHBBHII", 0x45, 0, total_len, 0, 0,
        packet.ttl, packet.proto, checksum,
        packet.src.value, packet.dst.value,
    )
    return header + body


def decode_ipv4(blob: bytes) -> Ipv4Packet:
    (ver_ihl, _tos, total_len, _ident, _frag, ttl, proto, checksum,
     src, dst) = _unpack("!BBHHHBBHII", blob, "IPv4 header")
    if ver_ihl != 0x45:
        raise WireError(f"unsupported IP header {ver_ihl:#x}")
    if internet_checksum(blob[:20]) != 0:
        raise WireError("bad IPv4 header checksum")
    body = blob[20:total_len]
    payload: Payload
    if proto == PROTO_UDP:
        payload = decode_udp(body)
    elif proto == PROTO_TCP:
        payload = decode_tcp(body)
    elif proto == PROTO_ICMP:
        payload = decode_icmp(body)
    else:
        payload = _decode_body(body)
    return Ipv4Packet(src=Ipv4Address(src), dst=Ipv4Address(dst),
                      proto=proto, payload=payload, ttl=ttl)


def encode_arp(message: ArpMessage) -> bytes:
    target_mac = message.target_mac.value if message.target_mac else 0
    return struct.pack(
        "!HHBBH6sI6sI",
        1, ETHERTYPE_IPV4, 6, 4, message.op.value,
        message.sender_mac.value.to_bytes(6, "big"), message.sender_ip.value,
        target_mac.to_bytes(6, "big"), message.target_ip.value,
    )


def decode_arp(blob: bytes) -> ArpMessage:
    (_htype, _ptype, _hlen, _plen, op, sender_mac, sender_ip, target_mac,
     target_ip) = _unpack("!HHBBH6sI6sI", blob, "ARP message")
    target = MacAddress(int.from_bytes(target_mac, "big"))
    return ArpMessage(
        op=_enum(ArpOp, op),
        sender_mac=MacAddress(int.from_bytes(sender_mac, "big")),
        sender_ip=Ipv4Address(sender_ip),
        target_ip=Ipv4Address(target_ip),
        target_mac=None if target.value == 0 else target,
    )


# ----------------------------------------------------------------------
# frames
# ----------------------------------------------------------------------
def encode_frame(frame: EthernetFrame, pad_to_min: bool = True) -> bytes:
    if frame.ethertype == ETHERTYPE_IPV4:
        body = encode_ipv4(frame.payload)
    elif frame.ethertype == ETHERTYPE_ARP:
        body = encode_arp(frame.payload)
    elif frame.ethertype == ETHERTYPE_MTP:
        if isinstance(frame.payload, MtpMessage):
            body = encode_mtp_message(frame.payload)
        else:
            body = _encode_body(frame.payload)
    else:
        body = _encode_body(frame.payload)
    blob = (frame.dst.value.to_bytes(6, "big")
            + frame.src.value.to_bytes(6, "big")
            + struct.pack("!H", frame.ethertype)
            + body)
    if pad_to_min and len(blob) < ETHERNET_MIN_FRAME_BYTES:
        blob += b"\x00" * (ETHERNET_MIN_FRAME_BYTES - len(blob))
    return blob


def decode_frame(blob: bytes, payload_len: Optional[int] = None) -> EthernetFrame:
    """Decode an encoded frame.  ``payload_len`` strips min-frame padding
    when the true payload length is known (e.g. from ``frame.wire_size``);
    IPv4 self-describes its length, so padding there is harmless."""
    dst, src, ethertype = _unpack("!6s6sH", blob, "Ethernet header")
    dst = MacAddress(int.from_bytes(dst, "big"))
    src = MacAddress(int.from_bytes(src, "big"))
    body = blob[14:] if payload_len is None else blob[14:14 + payload_len]
    if ethertype == ETHERTYPE_IPV4:
        payload: Payload = decode_ipv4(body)
    elif ethertype == ETHERTYPE_ARP:
        payload = decode_arp(body)
    elif ethertype == ETHERTYPE_MTP:
        payload = decode_mtp_message(body)
    else:
        payload = _decode_body(body)
    return EthernetFrame(dst=dst, src=src, ethertype=ethertype,
                         payload=payload)
