"""IPv4 packets (20-byte header, no options)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.stack.addresses import Ipv4Address
from repro.stack.payload import Payload, derived_size

IPV4_HEADER_BYTES = 20

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

DEFAULT_TTL = 64


@dataclass(frozen=True)
class Ipv4Packet:
    src: Ipv4Address
    dst: Ipv4Address
    proto: int
    payload: Payload
    ttl: int = DEFAULT_TTL
    wire_size: int = derived_size()

    def __post_init__(self) -> None:
        if not 0 <= self.proto <= 255:
            raise ValueError(f"bad IP protocol {self.proto}")
        if not 0 <= self.ttl <= 255:
            raise ValueError(f"bad TTL {self.ttl}")
        object.__setattr__(self, "wire_size",
                           IPV4_HEADER_BYTES + self.payload.wire_size)

    def decrement_ttl(self) -> "Ipv4Packet":
        """Return a copy with TTL reduced by one (raises if already 0)."""
        if self.ttl == 0:
            raise ValueError("TTL already zero")
        return Ipv4Packet(self.src, self.dst, self.proto, self.payload,
                          self.ttl - 1)

    def __str__(self) -> str:
        return (
            f"IPv4[{self.src} -> {self.dst} proto={self.proto} "
            f"ttl={self.ttl} len={self.wire_size}]"
        )
