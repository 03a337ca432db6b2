"""Ethernet frames.

Sizes follow Wireshark's convention (what the paper's captures report):
the 14-byte header is counted, the FCS and preamble are not.  MR-MTP uses
ethertype 0x8850 (an unused type, per the paper) and the broadcast
destination MAC on point-to-point links to avoid ARP.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.stack.addresses import MacAddress
from repro.stack.payload import Payload, derived_size

ETHERNET_HEADER_BYTES = 14
# Minimum Ethernet payload is 46 bytes -> 60-byte frame before FCS.  The
# paper's Fig. 10 counts the unpadded 1-byte MR-MTP payload; captures on a
# real wire would show padding, so frames can report either size.
ETHERNET_MIN_FRAME_BYTES = 60

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806
ETHERTYPE_MTP = 0x8850  # the unused type the paper assigns to MR-MTP


@dataclass(frozen=True, slots=True)
class EthernetFrame:
    dst: MacAddress
    src: MacAddress
    ethertype: int
    payload: Payload
    #: capture-length size: header + payload, no padding/FCS
    wire_size: int = derived_size()
    #: size on a physical wire (minimum 60-byte frame)
    padded_wire_size: int = derived_size()

    def __post_init__(self) -> None:
        if not 0 <= self.ethertype <= 0xFFFF:
            raise ValueError(f"bad ethertype {self.ethertype:#x}")
        size = ETHERNET_HEADER_BYTES + self.payload.wire_size
        object.__setattr__(self, "wire_size", size)
        object.__setattr__(self, "padded_wire_size",
                           max(size, ETHERNET_MIN_FRAME_BYTES))

    def __str__(self) -> str:
        return (
            f"Eth[{self.src} -> {self.dst} type={self.ethertype:#06x} "
            f"len={self.wire_size}]"
        )
