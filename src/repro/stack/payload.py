"""Payload protocol.

Every packet body (IPv4 packet inside an Ethernet frame, BGP message
inside a TCP stream, MR-MTP message inside a frame...) implements
``wire_size`` so layer sizes compose by simple addition — the accounting
the paper performs on Wireshark captures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol, runtime_checkable


@runtime_checkable
class Payload(Protocol):
    """Anything with a layer-2-countable size in bytes."""

    @property
    def wire_size(self) -> int: ...


def derived_size() -> Any:
    """Dataclass field for a size that an immutable layer works out once,
    in ``__post_init__``, from its own fields (``object.__setattr__`` on a
    frozen class).  It is not part of the value — no constructor argument,
    not in repr, equality or hash — and ``dataclasses.replace`` builds a
    new object that sizes itself again, so a copy never carries a stale
    size.  Every frame is sized on every hop and never decoded, hence a
    stored size rather than a walk of the layers per read."""
    return field(init=False, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class RawBytes:
    """Opaque payload of a given size (test traffic, padding)."""

    size: int
    tag: str = ""

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"negative payload size {self.size}")

    @property
    def wire_size(self) -> int:
        return self.size
