"""BFD sessions (RFC 5880 asynchronous mode, single-hop RFC 5881).

State machine per section 6.8.6, transmit jitter per 6.8.7 (periods drawn
uniformly from 75-100 % of the negotiated interval), detection time =
detect_mult x agreed interval.  Clients (BGP) register a callback and are
told about Up and Down transitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.sim.timers import PeriodicTimer, Timer
from repro.sim.units import MILLISECOND
from repro.stack.addresses import Ipv4Address
from repro.stack.ipv4 import PROTO_UDP, Ipv4Packet
from repro.stack.udp import UdpDatagram
from repro.net.interface import Interface
from repro.iputil.udp_service import UdpService
from repro.liveness import NeighborMonitor
from repro.bfd.messages import BFD_PORT, BfdControlPacket, BfdState

# The paper's configuration (section VI.F): 100 ms hello, multiplier 3.
DEFAULT_TX_INTERVAL_US = 100 * MILLISECOND
DEFAULT_DETECT_MULT = 3
# Sessions not yet Up transmit no faster than 1/s (RFC 5880 6.8.3).
SLOW_TX_INTERVAL_US = 1000 * MILLISECOND


@dataclass(frozen=True)
class BfdTimers:
    tx_interval_us: int = DEFAULT_TX_INTERVAL_US
    detect_mult: int = DEFAULT_DETECT_MULT

    @property
    def detection_time_us(self) -> int:
        return self.tx_interval_us * self.detect_mult


StateCallback = Callable[["BfdSession", bool], None]  # (session, is_up)


class BfdSession:
    """One single-hop async-mode session with a directly connected peer."""

    def __init__(
        self,
        manager: "BfdManager",
        peer: Ipv4Address,
        local: Ipv4Address,
        discriminator: int,
        timers: BfdTimers,
        on_state_change: Optional[StateCallback] = None,
        monitor: Optional[NeighborMonitor] = None,
    ) -> None:
        self.manager = manager
        self.node = manager.node
        self.sim = manager.node.sim
        self.peer = peer
        self.local = local
        self.my_discriminator = discriminator
        self.your_discriminator = 0
        self.timers = timers
        self.on_state_change = on_state_change
        # adaptive liveness (DESIGN §14): widens the detection time on a
        # measured-lossy link and carries the gray-failure verdict
        self.monitor = monitor
        self.state = BfdState.DOWN
        self.packets_sent = 0
        self.packets_received = 0
        self._tx_inputs: Optional[tuple] = None  # what _tx_packet was built from
        rng = manager.rng
        self._tx_timer = PeriodicTimer(
            self.sim, SLOW_TX_INTERVAL_US, self._transmit,
            name=f"bfd-tx-{peer}", jitter=0.25, rng=rng,
        )
        self._detect_timer = Timer(
            self.sim, timers.detection_time_us, self._on_detect_expired,
            name=f"bfd-detect-{peer}",
        )
        self._tx_timer.start(immediate=True)

    # ------------------------------------------------------------------
    @property
    def up(self) -> bool:
        return self.state is BfdState.UP

    def stop(self) -> None:
        self._tx_timer.stop()
        self._detect_timer.stop()
        self.state = BfdState.ADMIN_DOWN

    def admin_reset(self) -> None:
        """Back to DOWN and start polling again (after interface recovery)."""
        self.state = BfdState.DOWN
        self.your_discriminator = 0
        self._tx_timer.set_interval(SLOW_TX_INTERVAL_US)
        self._tx_timer.start(immediate=True)

    # ------------------------------------------------------------------
    def _transmit(self) -> None:
        # Advertise the rate we are actually transmitting at: the slow
        # rate until the session is Up (RFC 5880 6.8.3).
        current_tx = (
            self.timers.tx_interval_us if self.state is BfdState.UP
            else SLOW_TX_INTERVAL_US
        )
        # Flyweight: an Up session sends the same immutable packet every
        # interval.  Everything else in it is fixed at construction, so
        # comparing these three each tick leaves nothing to invalidate.
        inputs = (self.state, self.your_discriminator, current_tx)
        if inputs != self._tx_inputs:
            self._tx_inputs = inputs
            control = BfdControlPacket(
                state=self.state,
                detect_mult=self.timers.detect_mult,
                my_discriminator=self.my_discriminator,
                your_discriminator=self.your_discriminator,
                desired_min_tx_us=current_tx,
                required_min_rx_us=self.timers.tx_interval_us,
            )
            self._tx_packet = Ipv4Packet(
                src=self.local, dst=self.peer, proto=PROTO_UDP, ttl=255,
                payload=UdpDatagram(
                    src_port=49152 + (self.my_discriminator % 1024),
                    dst_port=BFD_PORT, payload=control),
            )
            self._tx_flow = self.manager.udp.stack.flow_for(self._tx_packet)
        self.packets_sent += 1
        self.manager.udp.stack.send_packet(self._tx_packet, self._tx_flow)

    def _set_state(self, new_state: BfdState) -> None:
        if new_state is self.state:
            return
        old = self.state
        self.state = new_state
        self.node.log(
            "bfd.state", f"{self.peer}: {old.name} -> {new_state.name}"
        )
        if new_state is BfdState.UP:
            # Speed up to the negotiated interval once Up (RFC 5880
            # 6.8.3).  Restart, don't just retarget: the pending slow-rate
            # transmission would otherwise leave the peer's detection
            # time at the slow rate for up to a full second.
            self._tx_timer.set_interval(self.timers.tx_interval_us)
            self._tx_timer.start(immediate=True)
            if self.on_state_change:
                self.on_state_change(self, True)
        elif old is BfdState.UP:
            self._tx_timer.set_interval(SLOW_TX_INTERVAL_US)
            self._tx_timer.start(immediate=True)
            if self.on_state_change:
                self.on_state_change(self, False)

    def handle_packet(self, packet: BfdControlPacket) -> None:
        if self.state is BfdState.ADMIN_DOWN:
            return
        self.packets_received += 1
        self.your_discriminator = packet.my_discriminator
        remote = packet.state

        if remote is BfdState.ADMIN_DOWN:
            self._set_state(BfdState.DOWN)
            self._detect_timer.stop()
            return

        # RFC 5880 6.8.6 state table
        if self.state is BfdState.DOWN:
            if remote is BfdState.DOWN:
                self._set_state(BfdState.INIT)
            elif remote is BfdState.INIT:
                self._set_state(BfdState.UP)
        elif self.state is BfdState.INIT:
            if remote in (BfdState.INIT, BfdState.UP):
                self._set_state(BfdState.UP)
        elif self.state is BfdState.UP:
            if remote is BfdState.DOWN:
                # peer signalled failure
                self._set_state(BfdState.DOWN)
                self._detect_timer.stop()
                return

        # Kick the detection timer on every packet from the peer.  The
        # detection time follows the *remote's* advertised transmit rate
        # (RFC 5880 6.8.4): mult x max(remote DesiredMinTx, local
        # RequiredMinRx) — so bring-up at the 1 s slow rate is not falsely
        # detected as a failure.
        if self.state in (BfdState.INIT, BfdState.UP):
            interval = max(packet.desired_min_tx_us, self.timers.tx_interval_us)
            detection = packet.detect_mult * interval
            if self.monitor is not None:
                # Feed the estimator only at the negotiated fast rate —
                # counting slow-rate (1 s) bring-up gaps against the
                # 100 ms period would fabricate misses.
                if interval == self.timers.tx_interval_us:
                    self.monitor.observe(self.sim.now, period_us=interval)
                    detection = self.monitor.detection_interval_us(
                        base_us=detection, period_us=interval)
                else:
                    self.monitor.interrupt()
            self._detect_timer.restart(detection)

    def _on_detect_expired(self) -> None:
        self.node.log("bfd.detect", f"{self.peer}: detection time expired")
        if self.monitor is not None:
            self.monitor.interrupt()
        self._set_state(BfdState.DOWN)


class BfdManager:
    """Per-node BFD endpoint: owns the UDP socket, demuxes to sessions."""

    def __init__(self, udp: UdpService, rng=None) -> None:
        self.udp = udp
        self.node = udp.node
        self.rng = rng if rng is not None else _require_world_rng(udp)
        self.sessions: dict[Ipv4Address, BfdSession] = {}
        self._next_discriminator = 1
        udp.open(BFD_PORT, self._on_datagram)
        self.node.bfd = self

    def create_session(
        self,
        peer: Ipv4Address,
        local: Ipv4Address,
        timers: BfdTimers = BfdTimers(),
        on_state_change: Optional[StateCallback] = None,
        monitor: Optional[NeighborMonitor] = None,
    ) -> BfdSession:
        if peer in self.sessions:
            raise ValueError(f"{self.node.name}: BFD session to {peer} exists")
        session = BfdSession(
            self, peer, local, self._next_discriminator, timers,
            on_state_change, monitor=monitor,
        )
        self._next_discriminator += 1
        self.sessions[peer] = session
        return session

    def remove_session(self, peer: Ipv4Address) -> None:
        session = self.sessions.pop(peer, None)
        if session is not None:
            session.stop()

    def _on_datagram(self, payload, src: Ipv4Address, src_port: int, iface: Interface) -> None:
        if not isinstance(payload, BfdControlPacket):
            return
        session = self.sessions.get(src)
        if session is not None:
            session.handle_packet(payload)


def _require_world_rng(udp: UdpService):
    raise ValueError("BfdManager requires an rng (pass world.rng.stream('bfd'))")
