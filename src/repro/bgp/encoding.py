"""RFC 4271 wire encoding / decoding.

Real bytes, not size estimates: captures of our UPDATE cascades therefore
sum to overhead figures directly comparable with the paper's tshark
numbers.  The encoder assumes the capability set FRR negotiates on a
datacenter profile session: multiprotocol IPv4-unicast, route-refresh and
4-octet-AS — a 45-byte OPEN.
"""

from __future__ import annotations

import struct

from repro.stack.addresses import Ipv4Address, Ipv4Network
from repro.bgp.messages import (
    BGP_HEADER_BYTES,
    BgpKeepalive,
    BgpMessage,
    BgpNotification,
    BgpOpen,
    BgpUpdate,
    MSG_KEEPALIVE,
    MSG_NOTIFICATION,
    MSG_OPEN,
    MSG_UPDATE,
    PathAttributes,
)

_MARKER = b"\xff" * 16

# attribute flags / type codes
_FLAG_TRANSITIVE = 0x40
_ATTR_ORIGIN = 1
_ATTR_AS_PATH = 2
_ATTR_NEXT_HOP = 3
_SEG_AS_SEQUENCE = 2


def _take(blob: bytes, start: int, size: int, what: str) -> bytes:
    """``size`` bytes of ``blob`` from ``start``; a message cut short is
    a ``ValueError``, like every other malformed one."""
    if start + size > len(blob):
        raise ValueError(f"truncated BGP {what}")
    return blob[start:start + size]


# ----------------------------------------------------------------------
# prefixes
# ----------------------------------------------------------------------
def _encode_prefix(prefix: Ipv4Network) -> bytes:
    nbytes = (prefix.prefix_len + 7) // 8
    addr = struct.pack("!I", prefix.address.value)
    return bytes([prefix.prefix_len]) + addr[:nbytes]


def _decode_prefixes(blob: bytes) -> list[Ipv4Network]:
    prefixes = []
    i = 0
    while i < len(blob):
        plen = blob[i]
        if plen > 32:
            raise ValueError(f"prefix length {plen}")
        nbytes = (plen + 7) // 8
        raw = _take(blob, i + 1, nbytes, "prefix") + b"\x00" * (4 - nbytes)
        value = struct.unpack("!I", raw)[0]
        prefixes.append(Ipv4Network(Ipv4Address(value), plen))
        i += 1 + nbytes
    return prefixes


# ----------------------------------------------------------------------
# path attributes
# ----------------------------------------------------------------------
def _encode_attributes(attrs: PathAttributes) -> bytes:
    out = bytearray()
    # ORIGIN
    out += bytes([_FLAG_TRANSITIVE, _ATTR_ORIGIN, 1, attrs.origin])
    # AS_PATH: one AS_SEQUENCE of 4-octet ASNs (4-octet-AS capable session)
    path_value = bytes([_SEG_AS_SEQUENCE, len(attrs.as_path)])
    for asn in attrs.as_path:
        path_value += struct.pack("!I", asn)
    if not attrs.as_path:
        path_value = b""  # empty AS_PATH attribute (locally originated)
    out += bytes([_FLAG_TRANSITIVE, _ATTR_AS_PATH, len(path_value)]) + path_value
    # NEXT_HOP
    out += bytes([_FLAG_TRANSITIVE, _ATTR_NEXT_HOP, 4])
    out += struct.pack("!I", attrs.next_hop.value)
    return bytes(out)


def _decode_attributes(blob: bytes) -> PathAttributes:
    origin = 0
    as_path: tuple[int, ...] = ()
    next_hop = Ipv4Address(0)
    i = 0
    while i < len(blob):
        _flags, type_code, length = _take(blob, i, 3, "attribute")
        value = _take(blob, i + 3, length, "attribute")
        i += 3 + length
        if type_code == _ATTR_ORIGIN:
            origin = _take(value, 0, 1, "ORIGIN")[0]
        elif type_code == _ATTR_AS_PATH:
            if value:
                count = _take(value, 0, 2, "AS_PATH")[1]
                as_path = struct.unpack(
                    f"!{count}I", _take(value, 2, 4 * count, "AS_PATH"))
        elif type_code == _ATTR_NEXT_HOP:
            next_hop = Ipv4Address(struct.unpack(
                "!I", _take(value, 0, 4, "NEXT_HOP"))[0])
    return PathAttributes(as_path=as_path, next_hop=next_hop, origin=origin)


# ----------------------------------------------------------------------
# messages
# ----------------------------------------------------------------------
def _with_header(msg_type: int, body: bytes) -> bytes:
    length = BGP_HEADER_BYTES + len(body)
    return _MARKER + struct.pack("!HB", length, msg_type) + body


# FRR-style capability block: MP IPv4/unicast (6) + route-refresh (2) +
# 4-octet AS (6) wrapped in one optional parameter (2) = 16 bytes.
def _open_capabilities(asn: int) -> bytes:
    caps = bytearray()
    caps += bytes([1, 4]) + struct.pack("!HBB", 1, 0, 1)       # MP: AFI 1 SAFI 1
    caps += bytes([2, 0])                                       # route refresh
    caps += bytes([65, 4]) + struct.pack("!I", asn)             # 4-octet AS
    return bytes([2, len(caps)]) + bytes(caps)


def encode_message(msg: BgpMessage) -> bytes:
    if isinstance(msg, BgpOpen):
        caps = _open_capabilities(msg.asn)
        two_octet_asn = msg.asn if msg.asn < 65536 else 23456  # AS_TRANS
        body = struct.pack(
            "!BHHI", 4, two_octet_asn, msg.hold_time_s, msg.router_id.value
        ) + bytes([len(caps)]) + caps
        return _with_header(MSG_OPEN, body)
    if isinstance(msg, BgpUpdate):
        withdrawn = b"".join(_encode_prefix(p) for p in msg.withdrawn)
        attrs = _encode_attributes(msg.attributes) if msg.attributes else b""
        nlri = b"".join(_encode_prefix(p) for p in msg.nlri)
        body = (
            struct.pack("!H", len(withdrawn)) + withdrawn
            + struct.pack("!H", len(attrs)) + attrs
            + nlri
        )
        return _with_header(MSG_UPDATE, body)
    if isinstance(msg, BgpKeepalive):
        return _with_header(MSG_KEEPALIVE, b"")
    if isinstance(msg, BgpNotification):
        return _with_header(
            MSG_NOTIFICATION, bytes([msg.error_code, msg.error_subcode])
        )
    raise TypeError(f"unknown BGP message {msg!r}")


def decode_message(blob: bytes) -> BgpMessage:
    if len(blob) < BGP_HEADER_BYTES or blob[:16] != _MARKER:
        raise ValueError("bad BGP header")
    length, msg_type = struct.unpack("!HB", blob[16:19])
    if length != len(blob):
        raise ValueError(f"length field {length} != {len(blob)}")
    body = blob[19:]
    if msg_type == MSG_OPEN:
        version, asn2, hold, router_id, opt_len = struct.unpack(
            "!BHHIB", _take(body, 0, 10, "OPEN"))
        if version != 4:
            raise ValueError(f"BGP version {version}")
        asn = asn2
        # recover 4-octet ASN from the capability if present
        opts = _take(body, 10, opt_len, "OPEN")
        i = 0
        while i < len(opts):
            ptype, plen = _take(opts, i, 2, "OPEN parameter")
            pval = _take(opts, i + 2, plen, "OPEN parameter")
            if ptype == 2:  # capabilities
                j = 0
                while j < len(pval):
                    code, clen = _take(pval, j, 2, "capability")
                    if code == 65:
                        asn = struct.unpack(
                            "!I", _take(pval, j + 2, 4, "capability"))[0]
                    j += 2 + clen
            i += 2 + plen
        return BgpOpen(asn=asn, hold_time_s=hold, router_id=Ipv4Address(router_id))
    if msg_type == MSG_UPDATE:
        wlen = struct.unpack("!H", _take(body, 0, 2, "UPDATE"))[0]
        withdrawn = tuple(_decode_prefixes(_take(body, 2, wlen, "UPDATE")))
        alen_at = 2 + wlen
        alen = struct.unpack("!H", _take(body, alen_at, 2, "UPDATE"))[0]
        attrs_blob = _take(body, alen_at + 2, alen, "UPDATE")
        nlri = tuple(_decode_prefixes(body[alen_at + 2 + alen :]))
        attributes = _decode_attributes(attrs_blob) if alen else None
        return BgpUpdate(withdrawn=withdrawn, nlri=nlri, attributes=attributes)
    if msg_type == MSG_KEEPALIVE:
        return BgpKeepalive()
    if msg_type == MSG_NOTIFICATION:
        code, subcode = _take(body, 0, 2, "NOTIFICATION")
        return BgpNotification(error_code=code, error_subcode=subcode)
    raise ValueError(f"unknown message type {msg_type}")
