"""BGP message types (RFC 4271).

``wire_size`` on every message is the length of its RFC 4271 encoding,
*computed* from the message's fields — a constant for the fixed-format
messages, one pass over the prefixes of an UPDATE when it is built —
because the simulator sizes every frame it sends and decodes none.
:func:`repro.bgp.encoding.encode_message` remains the single definition
of the bytes and the oracle for these sizes: a property test holds
``msg.wire_size == len(encode_message(msg))`` for every message shape,
so a KEEPALIVE is 19 bytes and rides in an 85-byte L2 frame — the number
in the paper's Fig. 9 — by proof, not by assumption.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.stack.addresses import Ipv4Address, Ipv4Network
from repro.stack.payload import derived_size

BGP_PORT = 179
BGP_HEADER_BYTES = 19  # 16-byte marker + 2 length + 1 type
# version 1 + AS 2 + hold time 2 + router id 4 + opt-param length 1, then
# the FRR datacenter-profile capability block (encoding._open_capabilities)
BGP_OPEN_BODY_BYTES = 10 + 16
# withdrawn-routes length 2 + total-path-attribute length 2
BGP_UPDATE_FIXED_BYTES = 4
BGP_NOTIFICATION_BODY_BYTES = 2  # error code + subcode, no data

MSG_OPEN = 1
MSG_UPDATE = 2
MSG_NOTIFICATION = 3
MSG_KEEPALIVE = 4

ORIGIN_IGP = 0


def prefix_encoded_len(prefix: Ipv4Network) -> int:
    """NLRI encoding: 1 length byte + ceil(prefix_len/8) address bytes."""
    return 1 + (prefix.prefix_len + 7) // 8


class BgpMessage:
    """Base class; every concrete message below carries ``wire_size``."""

    wire_size: int


@dataclass(frozen=True)
class BgpOpen(BgpMessage):
    asn: int
    hold_time_s: int
    router_id: Ipv4Address

    wire_size = BGP_HEADER_BYTES + BGP_OPEN_BODY_BYTES

    def __post_init__(self) -> None:
        if not 0 < self.asn < (1 << 32):
            raise ValueError(f"bad ASN {self.asn}")
        if not 0 <= self.hold_time_s <= 0xFFFF:
            raise ValueError(f"bad hold time {self.hold_time_s}")


@dataclass(frozen=True)
class PathAttributes:
    """The attribute set these experiments need: ORIGIN, AS_PATH (one
    AS_SEQUENCE segment of 4-octet ASNs), NEXT_HOP."""

    as_path: tuple[int, ...]
    next_hop: Ipv4Address
    origin: int = ORIGIN_IGP

    def prepend(self, asn: int, next_hop: Ipv4Address) -> "PathAttributes":
        return PathAttributes(
            as_path=(asn, *self.as_path), next_hop=next_hop, origin=self.origin
        )

    def contains_as(self, asn: int) -> bool:
        return asn in self.as_path

    def __hash__(self) -> int:
        # the dataclass's hash, the next hop's taken inline (as
        # Ipv4Network.__hash__ does)
        return hash((self.as_path, (self.next_hop.value,), self.origin))

    @property
    def encoded_len(self) -> int:
        """Bytes of the three attributes on the wire: ORIGIN 4, AS_PATH
        3 + (one 2-byte segment header + 4 per ASN, or nothing when the
        path is empty), NEXT_HOP 7."""
        hops = len(self.as_path)
        return 14 + (2 + 4 * hops if hops else 0)

    def __str__(self) -> str:
        return f"path={list(self.as_path)} nh={self.next_hop}"


@dataclass(frozen=True)
class BgpUpdate(BgpMessage):
    withdrawn: tuple[Ipv4Network, ...] = ()
    nlri: tuple[Ipv4Network, ...] = ()
    attributes: PathAttributes | None = None
    wire_size: int = derived_size()

    def __post_init__(self) -> None:
        if self.nlri and self.attributes is None:
            raise ValueError("NLRI requires path attributes (RFC 4271 3.1)")
        if not self.nlri and not self.withdrawn \
                and self.attributes is not None:
            raise ValueError("path attributes without NLRI")
        size = BGP_HEADER_BYTES + BGP_UPDATE_FIXED_BYTES
        for prefix in self.withdrawn:
            size += prefix_encoded_len(prefix)
        for prefix in self.nlri:
            size += prefix_encoded_len(prefix)
        if self.attributes is not None:
            size += self.attributes.encoded_len
        object.__setattr__(self, "wire_size", size)

    @property
    def is_end_of_rib(self) -> bool:
        """A fully empty UPDATE is the RFC 4724 End-of-RIB marker."""
        return not self.nlri and not self.withdrawn


@dataclass(frozen=True)
class BgpKeepalive(BgpMessage):
    wire_size = BGP_HEADER_BYTES


@dataclass(frozen=True)
class BgpNotification(BgpMessage):
    error_code: int
    error_subcode: int = 0

    wire_size = BGP_HEADER_BYTES + BGP_NOTIFICATION_BODY_BYTES

    # common codes
    HOLD_TIMER_EXPIRED = 4
    CEASE = 6
