"""Sequence-numbered UDP traffic: sender and receiver analyzer."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.engine import Simulator
from repro.sim.units import MILLISECOND
from repro.stack.addresses import Ipv4Address
from repro.iputil.udp_service import UdpService

DEFAULT_TRAFFIC_PORT = 7777


@dataclass(frozen=True)
class SeqPayload:
    """A test packet: sequence number + padding to the requested size."""

    seq: int
    size: int = 100

    def __post_init__(self) -> None:
        if self.size < 8:
            raise ValueError("payload too small to carry a sequence number")

    @property
    def wire_size(self) -> int:
        return self.size


@dataclass
class TrafficReport:
    """The analyzer's verdict (paper section VI.D).

    ``bytes_delivered`` / ``goodput_bps`` make the per-packet analyzer
    directly comparable with the fluid workload engine's byte-level
    accounting (:class:`repro.workload.WorkloadReport`): both express
    delivery as application bytes over the active window."""

    sent: int
    received: int
    duplicated: int
    out_of_order: int
    #: application payload bytes delivered (first copies only; dups
    #: don't count toward goodput)
    bytes_delivered: int = 0
    #: receive window in microseconds (first rx to last rx); 0 when
    #: fewer than two packets arrived
    window_us: int = 0

    @property
    def lost(self) -> int:
        return self.sent - self.received

    @property
    def loss_fraction(self) -> float:
        return self.lost / self.sent if self.sent else 0.0

    @property
    def goodput_bps(self) -> float:
        """Delivered application bits per second over the rx window."""
        if self.window_us <= 0:
            return 0.0
        return self.bytes_delivered * 8 * 1_000_000 / self.window_us

    def __str__(self) -> str:
        return (
            f"sent={self.sent} received={self.received} lost={self.lost} "
            f"dup={self.duplicated} ooo={self.out_of_order} "
            f"bytes={self.bytes_delivered}"
        )


class TrafficSender:
    """Emits ``count`` packets with a fixed inter-packet gap (gap 0 means
    truly back-to-back: the link serializes them at line rate)."""

    def __init__(
        self,
        udp: UdpService,
        dst: Ipv4Address,
        dst_port: int = DEFAULT_TRAFFIC_PORT,
        src_port: int = 40000,
        payload_bytes: int = 100,
        gap_us: int = 1 * MILLISECOND,
    ) -> None:
        self.udp = udp
        self.sim: Simulator = udp.node.sim
        self.dst = dst
        self.dst_port = dst_port
        self.src_port = src_port
        self.payload_bytes = payload_bytes
        self.gap_us = int(gap_us)
        self.sent = 0
        self._stop_at: Optional[int] = None
        self._remaining = 0
        self._handle = None

    def start(self, count: int, at: Optional[int] = None) -> None:
        """Send ``count`` packets starting now (or at absolute time ``at``)."""
        if count <= 0:
            raise ValueError("count must be positive")
        self._remaining = count
        when = self.sim.now if at is None else at
        self._handle = self.sim.schedule_at(when, self._tick)

    def stop(self) -> None:
        self._remaining = 0
        if self._handle is not None:
            self._handle.cancel()

    def _tick(self) -> None:
        if self._remaining <= 0:
            return
        self.udp.send(
            self.dst, self.dst_port, self.src_port,
            SeqPayload(seq=self.sent, size=self.payload_bytes),
        )
        self.sent += 1
        self._remaining -= 1
        if self._remaining > 0:
            self._handle = self.sim.schedule_after(max(self.gap_us, 1), self._tick)


class ReceiverAnalyzer:
    """Binds the traffic port and classifies arriving sequence numbers.

    State is kept *per flow* (source address + source port), so several
    concurrent senders — each numbering from zero, as the paper's tool
    does — are analyzed independently (incast workloads)."""

    def __init__(self, udp: UdpService, port: int = DEFAULT_TRAFFIC_PORT) -> None:
        self.udp = udp
        self.port = port
        # flow key -> (seen seqs, highest in-order seq)
        self._flows: dict[tuple[int, int], set[int]] = {}
        self._highest: dict[tuple[int, int], int] = {}
        self.received = 0
        self.duplicated = 0
        self.out_of_order = 0
        self.bytes_delivered = 0
        self.first_rx_time: Optional[int] = None
        self.last_rx_time: Optional[int] = None
        udp.open(port, self._on_packet)

    def _on_packet(self, payload, src, src_port, iface) -> None:
        if not isinstance(payload, SeqPayload):
            return
        now = self.udp.node.sim.now
        if self.first_rx_time is None:
            self.first_rx_time = now
        self.last_rx_time = now
        flow = (src.value, src_port)
        seen = self._flows.setdefault(flow, set())
        if payload.seq in seen:
            self.duplicated += 1
            return
        seen.add(payload.seq)
        self.received += 1
        self.bytes_delivered += payload.wire_size
        if payload.seq < self._highest.get(flow, -1):
            self.out_of_order += 1
        else:
            self._highest[flow] = payload.seq

    def flow_received(self, src: Ipv4Address, src_port: int) -> int:
        """Distinct sequence numbers seen from one flow — per-sender
        delivery accounting when several bursts share a receiver."""
        return len(self._flows.get((src.value, src_port), ()))

    def report(self, sender: TrafficSender) -> TrafficReport:
        window = 0
        if (self.first_rx_time is not None
                and self.last_rx_time is not None):
            window = self.last_rx_time - self.first_rx_time
        return TrafficReport(
            sent=sender.sent,
            received=self.received,
            duplicated=self.duplicated,
            out_of_order=self.out_of_order,
            bytes_delivered=self.bytes_delivered,
            window_us=window,
        )

    def close(self) -> None:
        self.udp.close(self.port)
