"""UDP datagrams (8-byte header).  BFD control packets ride in these."""

from __future__ import annotations

from dataclasses import dataclass

from repro.stack.payload import Payload, derived_size

UDP_HEADER_BYTES = 8


@dataclass(frozen=True)
class UdpDatagram:
    src_port: int
    dst_port: int
    payload: Payload
    wire_size: int = derived_size()

    def __post_init__(self) -> None:
        for port in (self.src_port, self.dst_port):
            if not 0 <= port <= 0xFFFF:
                raise ValueError(f"bad UDP port {port}")
        object.__setattr__(self, "wire_size",
                           UDP_HEADER_BYTES + self.payload.wire_size)

    def __str__(self) -> str:
        return f"UDP[{self.src_port} -> {self.dst_port} len={self.wire_size}]"
