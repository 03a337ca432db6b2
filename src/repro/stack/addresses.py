"""MAC and IPv4 address value types.

Small immutable value objects with parsing/formatting.  IPv4 addresses are
stored as a 32-bit int so prefix matching is mask arithmetic, which keeps
longest-prefix-match lookups cheap inside the forwarding hot loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from typing import Iterator, Union


@total_ordering
@dataclass(frozen=True)
class MacAddress:
    """48-bit MAC address."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < (1 << 48):
            raise ValueError(f"MAC out of range: {self.value:#x}")

    @classmethod
    def parse(cls, text: str) -> "MacAddress":
        parts = text.split(":")
        if len(parts) != 6:
            raise ValueError(f"bad MAC {text!r}")
        value = 0
        for part in parts:
            if len(part) != 2:
                raise ValueError(f"bad MAC {text!r}")
            value = (value << 8) | int(part, 16)
        return cls(value)

    @classmethod
    def from_index(cls, index: int) -> "MacAddress":
        """Locally-administered MAC derived from a dense index; the
        topology builder hands one to each interface."""
        if not 0 <= index < (1 << 40):
            raise ValueError(f"index out of range: {index}")
        return cls((0x02 << 40) | index)

    @property
    def is_broadcast(self) -> bool:
        return self.value == (1 << 48) - 1

    def __str__(self) -> str:
        octets = [(self.value >> shift) & 0xFF for shift in range(40, -8, -8)]
        return ":".join(f"{o:02x}" for o in octets)

    def __lt__(self, other: "MacAddress") -> bool:
        return self.value < other.value


BROADCAST_MAC = MacAddress((1 << 48) - 1)


@total_ordering
@dataclass(frozen=True)
class Ipv4Address:
    """32-bit IPv4 address."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < (1 << 32):
            raise ValueError(f"IPv4 out of range: {self.value:#x}")

    @classmethod
    def parse(cls, text: str) -> "Ipv4Address":
        parts = text.split(".")
        if len(parts) != 4:
            raise ValueError(f"bad IPv4 {text!r}")
        value = 0
        for part in parts:
            octet = int(part)
            if not 0 <= octet <= 255:
                raise ValueError(f"bad IPv4 {text!r}")
            value = (value << 8) | octet
        return cls(value)

    @property
    def octets(self) -> tuple[int, int, int, int]:
        v = self.value
        return ((v >> 24) & 0xFF, (v >> 16) & 0xFF, (v >> 8) & 0xFF, v & 0xFF)

    def __str__(self) -> str:
        v = self.value
        return f"{v >> 24}.{v >> 16 & 0xFF}.{v >> 8 & 0xFF}.{v & 0xFF}"

    def __lt__(self, other: "Ipv4Address") -> bool:
        return self.value < other.value

    def __add__(self, offset: int) -> "Ipv4Address":
        return Ipv4Address(self.value + offset)


def _mask(prefix_len: int) -> int:
    if not 0 <= prefix_len <= 32:
        raise ValueError(f"bad prefix length {prefix_len}")
    return ((1 << prefix_len) - 1) << (32 - prefix_len) if prefix_len else 0


@total_ordering
@dataclass(frozen=True)
class Ipv4Network:
    """An IPv4 prefix (network address + prefix length)."""

    address: Ipv4Address
    prefix_len: int

    def __post_init__(self) -> None:
        mask = _mask(self.prefix_len)
        if self.address.value & ~mask & 0xFFFFFFFF:
            raise ValueError(
                f"{self.address}/{self.prefix_len} has host bits set"
            )

    @classmethod
    def parse(cls, text: str) -> "Ipv4Network":
        addr_text, _, len_text = text.partition("/")
        if not len_text:
            raise ValueError(f"missing prefix length in {text!r}")
        return cls(Ipv4Address.parse(addr_text), int(len_text))

    @classmethod
    def of(cls, address: Union[str, Ipv4Address], prefix_len: int) -> "Ipv4Network":
        """Network containing ``address`` with host bits cleared."""
        if isinstance(address, str):
            address = Ipv4Address.parse(address)
        mask = _mask(prefix_len)
        return cls(Ipv4Address(address.value & mask), prefix_len)

    @property
    def mask(self) -> int:
        return _mask(self.prefix_len)

    def contains(self, address: Ipv4Address) -> bool:
        return (address.value & self.mask) == self.address.value

    def host(self, index: int) -> Ipv4Address:
        """The ``index``-th host address in the network (1-based)."""
        size = 1 << (32 - self.prefix_len)
        if not 0 <= index < size:
            raise ValueError(f"host index {index} out of /{self.prefix_len}")
        return Ipv4Address(self.address.value + index)

    def hosts(self) -> Iterator[Ipv4Address]:
        size = 1 << (32 - self.prefix_len)
        first = 1 if self.prefix_len < 31 else 0
        last = size - 1 if self.prefix_len < 31 else size
        for i in range(first, last):
            yield Ipv4Address(self.address.value + i)

    def __str__(self) -> str:
        return f"{self.address}/{self.prefix_len}"

    def __hash__(self) -> int:
        # the dataclass's hash((address, prefix_len)), the address's own
        # hash((value,)) taken inline: one Python call per RIB probe, not
        # two, and the same value (set orders stay as they were)
        return hash(((self.address.value,), self.prefix_len))

    def __lt__(self, other: "Ipv4Network") -> bool:
        return (self.address.value, self.prefix_len) < (
            other.address.value,
            other.prefix_len,
        )
