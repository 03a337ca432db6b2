"""TCP segments.

The 32-byte header matches what a Linux/FRR BGP session puts on the wire
(20-byte base header + 12 bytes of timestamp options on every established-
state segment) — this is what makes the paper's 85-byte BGP keepalive
arithmetic work: 14 (Eth) + 20 (IP) + 32 (TCP) + 19 (BGP) = 85.
SYN segments carry more options (MSS, window scale, SACK-permitted,
timestamps) and are sized separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Flag, auto

from repro.stack.payload import Payload, RawBytes, derived_size

TCP_HEADER_BYTES = 32        # base 20 + timestamp option 12 (padded)
TCP_SYN_HEADER_BYTES = 40    # base 20 + MSS/WS/SACK/TS options


class TcpFlags(Flag):
    NONE = 0
    SYN = auto()
    ACK = auto()
    FIN = auto()
    RST = auto()
    PSH = auto()


#: every data segment's flags
ACK_PSH = TcpFlags.ACK | TcpFlags.PSH

# The flags as bits, for tests on the segment path: ``flags._value_ &
# SYN_BIT`` is two attribute reads, ``TcpFlags.SYN in flags`` a Python
# call (``Flag.__contains__``) per test.
SYN_BIT, ACK_BIT, FIN_BIT, RST_BIT = (
    flag._value_ for flag in (TcpFlags.SYN, TcpFlags.ACK, TcpFlags.FIN,
                              TcpFlags.RST))


@dataclass(frozen=True)
class TcpSegment:
    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: TcpFlags
    payload: Payload = RawBytes(0)
    window: int = 65535
    header_size: int = derived_size()
    data_len: int = derived_size()
    wire_size: int = derived_size()
    #: sequence space consumed: data bytes plus 1 for SYN and for FIN
    seq_space: int = derived_size()

    def __post_init__(self) -> None:
        for port in (self.src_port, self.dst_port):
            if not 0 <= port <= 0xFFFF:
                raise ValueError(f"bad TCP port {port}")
        if self.seq < 0 or self.ack < 0:
            raise ValueError("negative sequence numbers")
        bits = self.flags._value_
        header = TCP_SYN_HEADER_BYTES if bits & SYN_BIT else TCP_HEADER_BYTES
        data = self.payload.wire_size
        set_size = object.__setattr__
        set_size(self, "header_size", header)
        set_size(self, "data_len", data)
        set_size(self, "wire_size", header + data)
        set_size(self, "seq_space",
                 data + (bits & SYN_BIT != 0) + (bits & FIN_BIT != 0))

    def __str__(self) -> str:
        names = [f.name for f in TcpFlags if f is not TcpFlags.NONE and f in self.flags]
        return (
            f"TCP[{self.src_port} -> {self.dst_port} "
            f"{'|'.join(names) or '-'} seq={self.seq} ack={self.ack} "
            f"len={self.data_len}]"
        )
