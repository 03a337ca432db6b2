"""Point-to-point links.

A link models the DCN's fiber pairs: per-direction serialization (frames
queue behind each other at line rate), a finite tail-drop egress queue,
and a fixed propagation delay.  Defaults approximate the testbed's
virtual links: 10 Gb/s, 5 us propagation, 512 KiB per-port buffering.
Delivery checks the receiving interface's admin state at arrival time,
so a frame racing an ``ip link set down`` is dropped exactly as on the
real VM.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sim.engine import Simulator
from repro.sim.units import SECOND
from repro.stack.ethernet import EthernetFrame
from repro.net.impairment import ImpairmentProfile, LinkImpairment
from repro.net.interface import Interface

DEFAULT_BANDWIDTH_BPS = 10_000_000_000  # 10 Gb/s
DEFAULT_PROPAGATION_US = 5
DEFAULT_QUEUE_BYTES = 512 * 1024  # per-direction egress buffer
_BYTE_TICKS = 8 * SECOND  # bytes x this // bits-per-second = ticks on the wire


class Link:
    """Full-duplex point-to-point link between two interfaces."""

    __slots__ = ("sim", "end_a", "end_b", "bandwidth_bps", "propagation_us",
                 "queue_bytes", "_next_free", "_frames_carried",
                 "_bytes_carried", "frames_dropped_queue", "_impairments",
                 "_arrival_seq", "_gray_until", "frames_lost_impaired",
                 "frames_corrupted", "frames_duplicated")

    def __init__(
        self,
        sim: Simulator,
        end_a: Interface,
        end_b: Interface,
        bandwidth_bps: int = DEFAULT_BANDWIDTH_BPS,
        propagation_us: int = DEFAULT_PROPAGATION_US,
        queue_bytes: Optional[int] = DEFAULT_QUEUE_BYTES,
    ) -> None:
        if end_a is end_b:
            raise ValueError("cannot cable an interface to itself")
        if end_a.link is not None or end_b.link is not None:
            raise ValueError("interface already cabled")
        if bandwidth_bps <= 0:
            raise ValueError(f"bad bandwidth {bandwidth_bps}")
        if propagation_us < 0:
            raise ValueError(f"bad propagation {propagation_us}")
        if queue_bytes is not None and queue_bytes <= 0:
            raise ValueError(f"bad queue size {queue_bytes}")
        self.sim = sim
        self.end_a = end_a
        self.end_b = end_b
        self.bandwidth_bps = bandwidth_bps
        self.propagation_us = int(propagation_us)
        self.queue_bytes = queue_bytes  # None = infinite buffering
        end_a.link = self
        end_b.link = self
        # Per-direction time at which the transmitter becomes free again;
        # keys are the *sending* interface.
        self._next_free: dict[Interface, int] = {end_a: 0, end_b: 0}
        self._frames_carried = 0
        self._bytes_carried = 0
        self.frames_dropped_queue = 0
        # Per-direction impairment (gray failures); keys are the sender.
        self._impairments: dict[Interface, LinkImpairment] = {}
        # Monotone arrival sequence used as the scheduler priority for
        # impaired deliveries: with jitter, two frames can land on the
        # same microsecond, and the explicit (time, priority) key makes
        # the delivery order a pure function of the transmit order — a
        # deterministic tiebreak independent of heap insertion details.
        # Clean links keep priority 0 so their digests are unchanged.
        self._arrival_seq = 0
        # Per-direction latest arrival drawn on the gray path: a jittered
        # frame can outlive the impairment that delayed it.
        self._gray_until: dict[Interface, int] = {}
        self.frames_lost_impaired = 0
        self.frames_corrupted = 0
        self.frames_duplicated = 0

    # ------------------------------------------------------------------
    def other_end(self, iface: Interface) -> Interface:
        if iface is self.end_a:
            return self.end_b
        if iface is self.end_b:
            return self.end_a
        raise ValueError(f"{iface!r} is not an end of this link")

    @property
    def frames_carried(self) -> int:
        self.end_a.settle()  # one end's tx and rx are both directions
        return self._frames_carried

    @property
    def bytes_carried(self) -> int:
        self.end_a.settle()
        return self._bytes_carried

    def serialization_us(self, frame: EthernetFrame) -> int:
        """Line-rate serialization delay (padded frames occupy the wire)."""
        bits = frame.padded_wire_size * 8
        return max(1, (bits * SECOND) // self.bandwidth_bps)

    # ------------------------------------------------------------------
    # impairment (gray failures) — see repro.net.impairment
    # ------------------------------------------------------------------
    def set_impairment(self, sender: Interface, profile: ImpairmentProfile,
                       rng: np.random.Generator) -> LinkImpairment:
        """Attach ``profile`` to the ``sender`` -> peer direction,
        replacing any existing impairment on that direction.  ``rng``
        must be a dedicated named stream (see
        :func:`repro.net.impairment.rng_stream_name`)."""
        if sender is not self.end_a and sender is not self.end_b:
            raise ValueError(f"{sender!r} is not an end of this link")
        sender.wake()
        state = LinkImpairment(profile, rng)
        self._impairments[sender] = state
        return state

    def clear_impairment(self, sender: Interface) -> None:
        """Remove any impairment on the ``sender`` -> peer direction."""
        sender.wake()
        self._impairments.pop(sender, None)

    def impairment(self, sender: Interface) -> Optional[LinkImpairment]:
        return self._impairments.get(sender)

    # ------------------------------------------------------------------
    def queue_backlog_bytes(self, sender: Interface) -> int:
        """Bytes currently waiting to serialize in ``sender``'s direction."""
        self.other_end(sender)  # ValueError for a foreign interface
        sender.settle()
        backlog_us = max(0, self._next_free[sender] - self.sim.now)
        return (backlog_us * self.bandwidth_bps) // _BYTE_TICKS

    # ------------------------------------------------------------------
    # a direction carried unseen — see repro.net.interface
    # ------------------------------------------------------------------
    def certain_latency_us(self, sender: Interface, frame: EthernetFrame,
                           at: Optional[int] = None) -> Optional[int]:
        """What :meth:`transmit` of ``frame`` at ``at`` (default: now)
        would take to deliver, when certain: the direction unimpaired,
        idle then and with nothing in flight on the gray path, the frame
        fitting the queue, no quiet exchange sending meanwhile."""
        now = self.sim.now
        at = now if at is None else at
        carried = sender.quiet_tx or ()
        for quiet in carried:
            quiet.settle()
        padded = frame.padded_wire_size
        if (sender in self._impairments
                or self._next_free[sender] > at
                or self._gray_until.get(sender, -1) >= now
                or (self.queue_bytes is not None
                    and padded > self.queue_bytes)):
            return None
        wire = self.serialization_us(frame)
        for quiet in carried:
            if quiet.next_tx(sender) < at + wire:
                return None
        return wire + self.propagation_us

    def transmit(self, sender: Interface, frame: EthernetFrame) -> bool:
        """Queue ``frame`` from ``sender``; deliver after serialization +
        propagation.  Back-to-back frames serialize sequentially, which is
        what lets the traffic generator's "back-to-back packets" saturate
        the line exactly as the paper's tool does.  A frame arriving to a
        full egress queue is tail-dropped (returns False) — congestion
        loss, distinct from the failure loss the paper measures.

        Every frame passes through here, so the arithmetic of
        :meth:`other_end`, :meth:`queue_backlog_bytes` and
        :meth:`serialization_us` is written out; they stay the public
        queries and ``tests/net`` holds them equal to this."""
        if sender is self.end_a:
            receiver = self.end_b
        elif sender is self.end_b:
            receiver = self.end_a
        else:
            raise ValueError(f"{sender!r} is not an end of this link")
        now = self.sim.now
        start = self._next_free[sender]
        if start < now:
            start = now
        padded = frame.padded_wire_size
        bandwidth = self.bandwidth_bps
        if (self.queue_bytes is not None
                and ((start - now) * bandwidth) // _BYTE_TICKS + padded
                > self.queue_bytes):
            self.frames_dropped_queue += 1
            sender._counters.tx_dropped_queue += 1
            return False
        done = start + ((padded * _BYTE_TICKS) // bandwidth or 1)
        self._next_free[sender] = done
        self._frames_carried += 1
        self._bytes_carried += frame.wire_size
        impairment = self._impairments.get(sender)
        if impairment is None:
            self.sim.schedule_at(done + self.propagation_us,
                                 receiver.deliver, frame)
            return True
        # Gray path: the frame occupied the wire (tx counters advance at
        # the sender), but its fate at the far end is drawn from the
        # direction's dedicated RNG stream.
        decision = impairment.decide()
        if decision.lost:
            self.frames_lost_impaired += 1
            return True
        if decision.corrupt:
            self.frames_corrupted += 1
        self._arrival_seq += 1
        arrival = done + self.propagation_us + decision.jitter_us
        self.sim.schedule_at(
            arrival, receiver.deliver, frame, decision.corrupt, False,
            priority=self._arrival_seq)
        if decision.duplicate:
            self.frames_duplicated += 1
            self._arrival_seq += 1
            dup_arrival = done + self.propagation_us + decision.dup_jitter_us
            self.sim.schedule_at(
                dup_arrival, receiver.deliver, frame, decision.corrupt, True,
                priority=self._arrival_seq)
            arrival = max(arrival, dup_arrival)
        if arrival > self._gray_until.get(sender, -1):
            self._gray_until[sender] = arrival
        return True

    def __repr__(self) -> str:
        return f"<Link {self.end_a.full_name} <-> {self.end_b.full_name}>"
