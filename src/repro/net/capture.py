"""Packet capture (the tshark substitute).

A :class:`Capture` taps any set of interfaces and records every frame with
its timestamp, direction and L2 size.  The control-overhead experiments
replay the paper's methodology — "tshark was used to capture BGP UPDATE
messages on all interfaces... total bytes transferred during the
convergence time was summed up" — directly on these records.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Optional

from repro.stack.ethernet import EthernetFrame
from repro.net.interface import Interface


class Direction(Enum):
    TX = "tx"
    RX = "rx"


@dataclass(frozen=True, slots=True)
class CaptureRecord:
    time: int
    node: str
    interface: str
    direction: Direction
    frame: EthernetFrame

    @property
    def wire_size(self) -> int:
        return self.frame.wire_size


FrameFilter = Callable[[EthernetFrame], bool]


class Capture:
    """Tap a set of interfaces and accumulate records."""

    def __init__(self, frame_filter: Optional[FrameFilter] = None) -> None:
        self.records: list[CaptureRecord] = []
        self.frame_filter = frame_filter
        self._tapped: list[Interface] = []
        self.enabled = True

    def attach(self, interfaces: Iterable[Interface]) -> None:
        for iface in interfaces:
            iface.add_tap(self._tap)
            self._tapped.append(iface)

    def attach_node(self, node) -> None:
        self.attach(node.interfaces.values())

    def detach(self) -> None:
        for iface in self._tapped:
            iface.remove_tap(self._tap)
        self._tapped.clear()

    def _tap(self, iface: Interface, frame: EthernetFrame, direction: str) -> None:
        if not self.enabled:
            return
        if self.frame_filter is not None and not self.frame_filter(frame):
            return
        self.records.append(
            CaptureRecord(
                time=iface.node.sim.now,
                node=iface.node.name,
                interface=iface.name,
                direction=Direction(direction),
                frame=frame,
            )
        )

    # ------------------------------------------------------------------
    # analysis helpers (the "parse the pcap" scripts)
    # ------------------------------------------------------------------
    def select(
        self,
        since: Optional[int] = None,
        until: Optional[int] = None,
        direction: Optional[Direction] = None,
        predicate: Optional[Callable[[CaptureRecord], bool]] = None,
    ) -> Iterator[CaptureRecord]:
        for rec in self.records:
            if since is not None and rec.time < since:
                continue
            if until is not None and rec.time > until:
                continue
            if direction is not None and rec.direction is not direction:
                continue
            if predicate is not None and not predicate(rec):
                continue
            yield rec

    def total_bytes(self, **kwargs) -> int:
        """Sum of L2 frame sizes over ``select(**kwargs)``.

        Counting TX only avoids double-counting frames seen at both ends
        of a link.
        """
        kwargs.setdefault("direction", Direction.TX)
        return sum(rec.wire_size for rec in self.select(**kwargs))

    def count(self, **kwargs) -> int:
        kwargs.setdefault("direction", Direction.TX)
        return sum(1 for _ in self.select(**kwargs))

    def clear(self) -> None:
        self.records.clear()
