"""BFD sessions (RFC 5880 asynchronous mode, single-hop RFC 5881).

State machine per section 6.8.6, transmit jitter per 6.8.7 (periods drawn
uniformly from 75-100 % of the negotiated interval), detection time =
detect_mult x agreed interval.  Clients (BGP) register a callback and are
told about Up and Down transitions.

A healthy Up session is held as arithmetic (:class:`QuietBfd`).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappush, heapreplace
from typing import Callable, Optional

from repro.sim.timers import PeriodicTimer, Timer
from repro.sim.units import MILLISECOND
from repro.stack.addresses import Ipv4Address
from repro.stack.ipv4 import PROTO_UDP, Ipv4Packet
from repro.stack.udp import UdpDatagram
from repro.net.interface import Interface
from repro.net.quiet import QuietExchange
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

    __slots__ = ("manager", "node", "sim", "peer", "local",
                 "my_discriminator", "your_discriminator", "timers",
                 "on_state_change", "monitor", "state", "_packets_sent",
                 "_packets_received", "_tx_inputs", "_tx_packet", "_tx_flow",
                 "_tx_timer", "_detect_timer", "port", "quiet_due")

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
        self._packets_sent = 0
        self._packets_received = 0
        self._tx_inputs: Optional[tuple] = None  # what _tx_packet was built from
        # while quiet: the due time of its entry in the manager's heap
        self.quiet_due: Optional[int] = None
        self.port = next((iface.name for iface in self.node.interfaces.values()
                          if iface.address == local), None)
        self._tx_timer = PeriodicTimer(
            self.sim, SLOW_TX_INTERVAL_US, self._transmit,
            name=f"bfd-tx-{peer}", jitter=0.25, rng=manager,
        )
        self._detect_timer = Timer(
            self.sim, timers.detection_time_us, self._on_detect_expired,
            name=f"bfd-detect-{peer}",
        )
        self._tx_timer.start(immediate=True)

    @property
    def packets_sent(self) -> int:
        self.manager.settle()
        return self._packets_sent

    @property
    def packets_received(self) -> int:
        if self.port is not None:
            self.node.interfaces[self.port].settle()
        return self._packets_received

    def _wake(self) -> None:
        """Before it changes what it sends or takes: its port is loud."""
        if self.port is not None:
            self.node.interfaces[self.port].wake()

    # ------------------------------------------------------------------
    @property
    def up(self) -> bool:
        return self.state is BfdState.UP

    def stop(self) -> None:
        self._wake()
        self._tx_timer.stop()
        self._detect_timer.stop()
        self.state = BfdState.ADMIN_DOWN

    def admin_reset(self) -> None:
        """Back to DOWN and start polling again (after interface recovery)."""
        self._wake()
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
        if (self.state is BfdState.UP and self.monitor is None
                and self.port is not None
                and not self.node.interfaces[self.port].taps
                and QuietBfd.begin(self)):
            return  # this packet is the first one nobody has to see
        self._packets_sent += 1
        self.manager.udp.stack.send_packet(self._tx_packet, self._tx_flow)

    def _set_state(self, new_state: BfdState) -> None:
        if new_state is self.state:
            return
        self._wake()
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
        self._packets_received += 1
        if packet.my_discriminator != self.your_discriminator:
            self._wake()  # what this session sends changes
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


class QuietBfd(QuietExchange):
    """An Up session's packets to its Up peer: each tick (the manager
    settles them) sends one that re-arms the far detection timer."""

    __slots__ = ("session", "far", "tx", "rx", "frame", "latency",
                 "detection", "arrival", "detect")

    @classmethod
    def begin(cls, session: BfdSession) -> bool:
        """From the packet sent now on, if it surely reaches an Up,
        unmonitored far session that knows us, whose detection outlasts
        any period."""
        out = session.manager.udp.stack.egress(session._tx_packet,
                                               session._tx_flow)
        if out is None or out[0].name != session.port:
            return False
        (tx, frame), rx = out, out[0].peer()
        bfd = getattr(rx.node, "bfd", None)
        far = bfd.sessions.get(session.local) if bfd is not None else None
        if (far is None or far.state is not BfdState.UP or far.port != rx.name
                or far.monitor is not None or not rx.admin_up or rx.taps
                or far.your_discriminator != session.my_discriminator
                or session.peer not in rx.node.ip.local_addresses()):
            return False
        control = session._tx_packet.payload.payload
        detection = control.detect_mult * max(control.desired_min_tx_us,
                                              far.timers.tx_interval_us)
        latency = tx.link.certain_latency_us(tx, frame)
        armed = far._detect_timer.deadline
        if (latency is None or armed is None
                or armed[0] <= session.sim.now + latency
                or detection <= session._tx_timer.interval):
            return False
        quiet = cls()
        quiet.carry(session.sim, (tx,), (rx,))
        quiet.session, quiet.far, quiet.tx, quiet.rx = session, far, tx, rx
        quiet.frame, quiet.latency, quiet.detection = frame, latency, detection
        quiet.detect, quiet.arrival = armed, None
        due = session._tx_timer._handle  # drawn by the tick sending this one
        heappush(session.manager._quiet, (due.time, due.born, due.seq, session))
        session.quiet_due = due.time
        session._tx_timer.stop()
        far._detect_timer.stop()
        quiet.tick(session.sim.now)
        return True

    def tick(self, at: int, count: int = 1, before: int = 0) -> None:
        """``count`` ticks passed, the last at ``at`` (the one before it
        at ``before``): every packet but the last has long been heard."""
        heard = count - 1 if self.arrival is None else count
        if count > 1:
            self.arrival = before + self.latency
        if heard:
            self._hear(heard)
        self.session._packets_sent += count
        self.session.manager.udp.stack._counters.sent += count
        self.sent(self.tx, self.frame, count, at)
        self.arrival = at + self.latency

    def _hear(self, count: int = 1) -> None:
        """``count`` packets arrived, the last at :attr:`arrival`."""
        arrival, self.arrival = self.arrival, None
        self.heard(self.rx, self.frame, count)
        self.far.manager.udp.stack._counters.delivered += count
        self.far._packets_received += count
        self.detect = (arrival + self.detection, arrival)

    def next_tx(self, iface: Interface) -> int:  # its entry in the heap
        return self.session.quiet_due

    def settle(self) -> None:
        self.session.manager.settle()
        arrival = self.arrival
        if (arrival is not None
                and self.sim.has_passed(arrival, arrival - self.latency)):
            self._hear()

    def put_back(self) -> None:
        session, heap = self.session, self.session.manager._quiet
        due, born, _seq, _session = entry = next(
            entry for entry in heap if entry[3] is session)
        heap.remove(entry)
        heapify(heap)
        timer = session._tx_timer
        if self.arrival is not None:  # sent, yet to arrive
            self.sim.schedule_at(self.arrival, self.rx.deliver, self.frame,
                                 born=self.arrival - self.latency,
                                 seq=timer.rank)
        self.far._detect_timer.start_at(*self.detect)
        timer.start_at(due, born=born)


class BfdManager:
    """Per-node BFD endpoint: owns the UDP socket, demuxes to sessions.
    Sessions share one jitter stream, so quiet ones settle together in
    queue order: ``_quiet`` heaps their next ticks, ranked as events."""

    def __init__(self, udp: UdpService, rng=None) -> None:
        self.udp = udp
        self.node = udp.node
        self._rng = rng if rng is not None else _require_world_rng(udp)
        self.sessions: dict[Ipv4Address, BfdSession] = {}
        self._quiet: list[tuple[int, int, int, BfdSession]] = []
        self._next_discriminator = 1
        udp.open(BFD_PORT, self._on_datagram)
        self.node.bfd = self

    @property
    def rng(self):
        """The stream, once the quiet sessions have drawn from it."""
        self.settle()
        return self._rng

    def random(self) -> float:
        """The transmit timers' draw (:attr:`rng`, inlined)."""
        if self._quiet:
            self.settle()
        return self._rng.random()

    def settle(self) -> None:
        """Account the quiet sessions' passed ticks, drawing as played:
        in queue order, one period draw per tick; each session's counters
        then move once, by its whole count."""
        heap = self._quiet
        if not heap:
            return
        sim = self.node.sim
        now, cursor, random = sim._now, sim._cursor, self._rng.random
        passed: dict[BfdSession, list[int]] = {}
        while heap:
            due, born, seq, session = heap[0]
            # sim.has_passed(due, born, seq), inline: nothing runs here
            if due > now or (due == now and (0, born, seq) >= cursor):
                break
            ticks = passed.get(session)
            if ticks is None:
                passed[session] = [due]
            else:
                ticks.append(due)
            # session._tx_timer._next_period(self._rng), inline: the
            # same draw, in the same order
            timer = session._tx_timer
            period = interval = timer.interval
            if timer.jitter != 0.0:
                lo = (1.0 - timer.jitter) * interval
                period = max(1, int(lo + (interval - lo) * random()))
            session.quiet_due = next_due = due + period
            heapreplace(heap, (next_due, due, seq, session))
        for session, ticks in passed.items():
            sim.events_settled += len(ticks)
            next(quiet for quiet in session.node.interfaces[
                session.port].quiet_tx if type(quiet) is QuietBfd).tick(
                    ticks[-1], len(ticks), ticks[-2] if len(ticks) > 1 else 0)

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
