"""The BGP speaker: session FSM, route propagation, FIB download.

One speaker per router.  Sessions ride the node's TCP service; the peer
with the lower interface address performs the active open (deterministic,
no collision handling needed).  Failure behaviour mirrors FRR's
datacenter profile:

* **fast fallover** — a local interface-down event tears the session down
  immediately (the instant-detection side of the paper's TC cases);
* **hold timer** — the remote side detects only after ``hold_us`` without
  keepalives (3 s here), unless
* **BFD** is enabled, in which case its Down notification (300 ms
  detection) tears the session down early.

Update propagation: per-prefix decision process; advertisements carry
only the best path, are suppressed toward peers whose ASN appears in the
AS_PATH (RFC 4271 9.1.3 sender-side loop check — what keeps Clos routing
valley-free under the RFC 7938 plan), and are batched per MRAI window
with shared-attribute packing, so capture byte counts behave like real
bgpd output.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.sim.rng import uniform
from repro.sim.timers import PeriodicTimer, Timer
from repro.stack.addresses import Ipv4Address, Ipv4Network
from repro.stack.tcp_segment import ACK_PSH, TcpFlags
from repro.net.interface import Interface
from repro.net.node import Node
from repro.net.quiet import NEVER, QuietExchange
from repro.iputil.stack import IpStack
from repro.iputil.tcp import TcpConnection, TcpService, _Unacked
from repro.routing.table import NextHop, Route
from repro.bfd.session import BfdManager, BfdSession
from repro.liveness import FlapDamper, NeighborMonitor
from repro.bgp.config import BgpConfig, BgpNeighborConfig
from repro.bgp.messages import (
    BGP_PORT,
    BgpKeepalive,
    BgpMessage,
    BgpNotification,
    BgpOpen,
    BgpUpdate,
    PathAttributes,
)
from repro.bgp.rib import AdjRibIn, LocRib, RibEntry

BGP_ROUTE_METRIC = 20  # `proto bgp metric 20`, as in the paper's Listing 3


class PeerState(Enum):
    IDLE = "idle"
    CONNECT = "connect"
    OPEN_SENT = "open-sent"
    OPEN_CONFIRM = "open-confirm"
    ESTABLISHED = "established"


@dataclass
class _PendingOut:
    """Adj-RIB-Out changes awaiting the next MRAI flush."""

    withdraw: set[Ipv4Network] = field(default_factory=set)
    advertise: dict[Ipv4Network, PathAttributes] = field(default_factory=dict)

    def clear(self) -> None:
        self.withdraw.clear()
        self.advertise.clear()

    def __bool__(self) -> bool:
        return bool(self.withdraw or self.advertise)


_KEEPALIVE = BgpKeepalive()


class BgpPeer:
    """Per-neighbor session state."""

    __slots__ = ("speaker", "cfg", "state", "conn", "local_ip", "adj_out",
                 "pending", "bfd_session", "sessions_established", "damper",
                 "_suppress_flagged", "hold_timer", "keepalive_timer",
                 "retry_timer", "mrai_timer", "_flush_scheduled",
                 "stale_timer", "_from_text", "_to_text")

    def __init__(self, speaker: "BgpSpeaker", cfg: BgpNeighborConfig) -> None:
        self.speaker = speaker
        self.cfg = cfg
        self.state = PeerState.IDLE
        self.conn: Optional[TcpConnection] = None
        self.local_ip = speaker.stack.address_on(cfg.interface)
        self.adj_out: dict[Ipv4Network, PathAttributes] = {}
        self.pending = _PendingOut()
        self.bfd_session: Optional[BfdSession] = None
        self.sessions_established = 0
        # the trace text of every UPDATE received from / sent to it
        self._from_text = f"from {cfg.peer_ip}"
        self._to_text = f"to {cfg.peer_ip}"
        sim = speaker.node.sim
        timers = speaker.config.timers
        # session-level flap damping (DESIGN §14): each session loss adds
        # penalty; while suppressed, neither side of this peer re-forms
        # the session (active connects and passive accepts both gate)
        liveness = speaker.config.liveness
        self.damper: Optional[FlapDamper] = None
        if liveness is not None and liveness.damping:
            self.damper = FlapDamper(liveness, sim.now)
        self._suppress_flagged = False
        self.hold_timer = Timer(sim, timers.hold_us, self._on_hold_expired,
                                name=f"hold-{cfg.peer_ip}")
        self.keepalive_timer = PeriodicTimer(
            sim, timers.keepalive_us, self._send_keepalive,
            name=f"ka-{cfg.peer_ip}",
            jitter=timers.jitter, rng=speaker.rng)
        self.retry_timer = Timer(sim, timers.connect_retry_us,
                                 self._retry_connect,
                                 name=f"retry-{cfg.peer_ip}")
        self.mrai_timer: Optional[Timer] = None
        if timers.mrai_us > 0:
            self.mrai_timer = Timer(sim, timers.mrai_us, self.flush_pending,
                                    name=f"mrai-{cfg.peer_ip}")
        self._flush_scheduled = False
        # RFC 4724: while this runs, the peer's paths stay usable-but-
        # stale in the Adj-RIB-In.  Expiry (or a fresh End-of-RIB)
        # flushes whatever the peer never refreshed.
        self.stale_timer: Optional[Timer] = None
        if speaker.config.graceful_restart:
            self.stale_timer = Timer(
                sim, speaker.config.gr_restart_time_us,
                self._on_stale_expired, name=f"gr-stale-{cfg.peer_ip}")

    # ------------------------------------------------------------------
    @property
    def is_active_opener(self) -> bool:
        return self.local_ip.value < self.cfg.peer_ip.value

    @property
    def established(self) -> bool:
        return self.state is PeerState.ESTABLISHED

    def __repr__(self) -> str:
        return f"<BgpPeer {self.speaker.node.name}->{self.cfg.peer_ip} {self.state.value}>"

    # ------------------------------------------------------------------
    # session bring-up
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.is_active_opener:
            self._retry_connect()

    def _damping_gate(self) -> bool:
        """True while flap damping withholds session (re-)formation.
        Emits the edge-triggered ``suppress``/``reuse`` trace events."""
        if self.damper is None:
            return False
        now = self.speaker.node.sim.now
        if self.damper.suppressed(now):
            if not self._suppress_flagged:
                self._suppress_flagged = True
                eta_ms = self.damper.reuse_eta_us(now) // 1000
                self.speaker.node.log(
                    "bgp.damping",
                    f"{self.cfg.peer_ip} suppress (reuse in ~{eta_ms} ms)")
            return True
        if self._suppress_flagged:
            self._suppress_flagged = False
            self.speaker.node.log("bgp.damping", f"{self.cfg.peer_ip} reuse")
        return False

    def _retry_connect(self) -> None:
        if self.state is not PeerState.IDLE:
            return
        if self._damping_gate():
            # re-check once the penalty has decayed to the reuse level
            eta = self.damper.reuse_eta_us(self.speaker.node.sim.now)
            retry = self.speaker.config.timers.connect_retry_us
            self.retry_timer.start(max(retry, eta + 1000))
            return
        iface = self.speaker.node.interfaces[self.cfg.interface]
        if not iface.admin_up:
            self.retry_timer.start()
            return
        self.state = PeerState.CONNECT
        conn = self.speaker.tcp.connect(self.cfg.peer_ip, BGP_PORT,
                                        local=self.local_ip)
        self._bind_connection(conn)
        conn.on_established = self._on_tcp_established

    def accept_connection(self, conn: TcpConnection) -> None:
        """Incoming TCP connection from this neighbor."""
        if self._damping_gate():
            conn.abort()
            return
        if self.established:
            # A brand-new connection while the old session still looks
            # up means the neighbor's process bounced without us ever
            # noticing (it crashed silently, then reconnected).  The old
            # session must go *down* first — merging the fresh
            # connection into the established state would leave the
            # Adj-RIB-Out believing everything was already sent, so the
            # restarted peer would never be refreshed.
            self.down("remote-restart")
        elif self.conn is not None:
            self.conn.on_close = None
            self.conn.abort()
        self._bind_connection(conn)
        self.state = PeerState.CONNECT
        conn.on_established = self._on_tcp_established

    def _bind_connection(self, conn: TcpConnection) -> None:
        self.conn = conn
        conn.on_receive = self._on_message
        conn.on_close = self._on_tcp_closed

    def _on_tcp_established(self) -> None:
        self._send(BgpOpen(
            asn=self.speaker.config.asn,
            hold_time_s=self.speaker.config.timers.hold_us // 1_000_000,
            router_id=self.speaker.config.router_id,
        ))
        self.state = PeerState.OPEN_SENT
        self.hold_timer.start()

    def _on_tcp_closed(self, reason: str) -> None:
        self.down(f"tcp:{reason}")

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------
    def _on_message(self, message) -> None:
        if not isinstance(message, BgpMessage):
            return
        self.hold_timer.restart()
        if isinstance(message, BgpOpen):
            self._on_open(message)
        elif isinstance(message, BgpKeepalive):
            self._on_keepalive()
        elif isinstance(message, BgpUpdate):
            self._on_update(message)
        elif isinstance(message, BgpNotification):
            self.down(f"notification:{message.error_code}")

    def _on_open(self, msg: BgpOpen) -> None:
        if msg.asn != self.cfg.peer_asn:
            self._send(BgpNotification(BgpNotification.CEASE))
            self.down("bad-peer-as")
            return
        self._send(BgpKeepalive())
        if self.state is PeerState.OPEN_SENT:
            self.state = PeerState.OPEN_CONFIRM

    def _on_keepalive(self) -> None:
        if self.state is PeerState.OPEN_CONFIRM:
            self._become_established()

    def _on_update(self, msg: BgpUpdate) -> None:
        if self.state is not PeerState.ESTABLISHED:
            return
        self.speaker.node.log("bgp.update.rx", self._from_text,
                              bytes=msg.wire_size)
        # model bgpd's processing latency before the decision process runs
        self.speaker.node.sim.schedule_after(
            self.speaker.processing_delay(), self.speaker.process_update,
            self, msg,
        )

    def _become_established(self) -> None:
        self.state = PeerState.ESTABLISHED
        self.sessions_established += 1
        self.keepalive_timer.start()
        self.hold_timer.restart()
        self.speaker.node.log("bgp.session", f"{self.cfg.peer_ip} up")
        self.speaker.on_peer_established(self)

    # ------------------------------------------------------------------
    # keepalive / hold
    # ------------------------------------------------------------------
    def _send_keepalive(self) -> None:
        if (self.state is PeerState.ESTABLISHED
                and not self.speaker.node.interfaces[self.cfg.interface].taps
                and QuietKeepalives.take(self)):
            self._log_sent(_KEEPALIVE)
        elif self.state in (PeerState.ESTABLISHED, PeerState.OPEN_CONFIRM):
            self._send(BgpKeepalive())

    def _on_hold_expired(self) -> None:
        self.speaker.node.log("bgp.holdtime", f"{self.cfg.peer_ip} expired")
        if self.conn is not None and self.established:
            self._send(BgpNotification(BgpNotification.HOLD_TIMER_EXPIRED))
        self.down("hold-timer")

    # Ethernet(14) + IPv4(20) + TCP-with-timestamps(32): what a capture
    # adds on top of the BGP message itself.  Logged byte counts are L2
    # frame sizes, as the paper's tshark-based accounting measures.
    _L2_ENCAP_BYTES = 66

    def _send(self, message: BgpMessage) -> None:
        if self.conn is None:
            return
        try:
            self.conn.send(message)
        except RuntimeError:
            return
        self._log_sent(message)

    def _log_sent(self, message: BgpMessage) -> None:
        frame_bytes = message.wire_size + self._L2_ENCAP_BYTES
        if isinstance(message, BgpUpdate):
            self.speaker.node.log("bgp.update.tx", self._to_text,
                                  bytes=frame_bytes)
        elif isinstance(message, BgpKeepalive):
            self.speaker.node.log("bgp.keepalive.tx", self._to_text,
                                  bytes=frame_bytes)

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def down(self, reason: str) -> None:
        """Session failure or teardown: purge and schedule reconnection."""
        was_established = self.established
        if self.conn is not None:
            self.conn.on_close = None
            self.conn.on_receive = None
            self.conn.abort()
            self.conn = None
        self.state = PeerState.IDLE
        self.hold_timer.stop()
        self.keepalive_timer.stop()
        if self.mrai_timer:
            self.mrai_timer.stop()
        self.pending.clear()
        self.adj_out.clear()
        if was_established:
            self.speaker.node.log("bgp.session",
                                  f"{self.cfg.peer_ip} down ({reason})")
            if self.damper is not None:
                self.damper.record_flap(self.speaker.node.sim.now)
            self.speaker.on_peer_down(self, reason)
        if self.is_active_opener:
            self.retry_timer.start()

    def crash(self) -> None:
        """Process death: the connection vanishes silently (no FIN, no
        RST — stray segments draw kernel RSTs once the listener is
        gone), every timer stops, and the speaker is *not* notified —
        there is nobody left to notify."""
        if self.conn is not None:
            self.conn.on_close = None
            self.conn.on_receive = None
            self.conn.on_established = None
            self.conn._teardown("crashed")
            self.conn = None
        self.state = PeerState.IDLE
        self.hold_timer.stop()
        self.keepalive_timer.stop()
        self.retry_timer.stop()
        if self.mrai_timer:
            self.mrai_timer.stop()
        if self.stale_timer is not None:
            self.stale_timer.stop()
        self.pending.clear()
        self.adj_out.clear()

    def arm_stale_timer(self) -> None:
        if self.stale_timer is not None:
            self.stale_timer.restart()

    def _on_stale_expired(self) -> None:
        self.speaker.flush_stale(self, "restart-timer")

    def send_eor(self) -> None:
        """End-of-RIB: an UPDATE with no withdrawals and no NLRI, sent
        once the initial table exchange has been queued."""
        if self.established:
            self._send(BgpUpdate())

    def clear_damping(self) -> None:
        """The underlying link was repaired (impairment cleared): drop
        the penalty accumulated against the fault so the session
        re-forms on the normal retry schedule."""
        if self.damper is None:
            return
        self.damper.reset()
        if self.bfd_session is not None and self.bfd_session.monitor is not None:
            self.bfd_session.monitor.clear_history()
        if self._suppress_flagged:
            self._suppress_flagged = False
            self.speaker.node.log("bgp.damping", f"{self.cfg.peer_ip} reuse")

    # ------------------------------------------------------------------
    # adj-rib-out
    # ------------------------------------------------------------------
    def queue_route(self, prefix: Ipv4Network, best: Optional[RibEntry]) -> None:
        """Queue the advertisement/withdrawal implied by the new best path
        (called once per peer per changed decision: addresses compare by
        value, and ``None`` never meets ``PathAttributes.__eq__``)."""
        if self.state is not PeerState.ESTABLISHED:
            return
        cfg = self.cfg
        if best is None:
            out_attrs = None
        elif cfg.peer_asn in best.attributes.as_path:
            # RFC 4271 9.1.3: do not advertise a route whose AS_PATH
            # contains the peer's AS
            out_attrs = None
        elif best.peer_ip is not None and best.peer_ip.value == cfg.peer_ip.value:
            # no point reflecting the peer's own route back
            out_attrs = None
        else:
            out_attrs = best.attributes.prepend(self.speaker.config.asn,
                                                self.local_ip)
        currently = self.adj_out.get(prefix)
        pending = self.pending
        if out_attrs is None:
            if currently is not None:
                pending.advertise.pop(prefix, None)
                pending.withdraw.add(prefix)
                if not self._flush_scheduled:
                    self._arm_flush()
            return
        if currently is not None and out_attrs == currently:
            return
        if pending.withdraw:
            pending.withdraw.discard(prefix)
        pending.advertise[prefix] = out_attrs
        if not self._flush_scheduled:
            self._arm_flush()

    def _arm_flush(self) -> None:
        timers = self.speaker.config.timers
        if timers.mrai_us > 0:
            if not self.mrai_timer.running:
                self.mrai_timer.start()
            return
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.speaker.node.sim.call_soon(self.flush_pending)

    def flush_pending(self) -> None:
        """Emit queued changes as packed UPDATE messages."""
        self._flush_scheduled = False
        if not self.pending or not self.established:
            self.pending.clear()
            return
        withdraw = tuple(sorted(self.pending.withdraw))
        groups: dict[PathAttributes, list[Ipv4Network]] = {}
        for prefix, attrs in self.pending.advertise.items():
            groups.setdefault(attrs, []).append(prefix)
        self.pending.clear()
        # apply to adj-rib-out
        for prefix in withdraw:
            self.adj_out.pop(prefix, None)
        for attrs, prefixes in groups.items():
            for prefix in prefixes:
                self.adj_out[prefix] = attrs
        # first message carries the withdrawals (plus one attr group);
        # groups go out in the text order of their first prefix
        group_items = [(attrs, tuple(sorted(prefixes)))
                       for attrs, prefixes in groups.items()]
        if len(group_items) > 1:
            group_items.sort(key=lambda group: str(group[1][0]))
        if withdraw and not group_items:
            self._send(BgpUpdate(withdrawn=withdraw))
        for i, (attrs, nlri) in enumerate(group_items):
            self._send(BgpUpdate(
                withdrawn=withdraw if i == 0 else (),
                nlri=nlri,
                attributes=attrs,
            ))


class QuietKeepalives(QuietExchange):
    """An idle session's keepalive exchange after each (real) tick:
    ``flight`` holds the segments in the air, ranked as their deliveries
    would be — the keepalive ``latency`` after its tick, the pure ACK
    ``ack_latency`` after that — and the hold timers are deadlines."""

    __slots__ = ("ends", "ports", "conns", "frames", "latency",
                 "ack_latency", "hold", "unacked", "flight")

    @classmethod
    def take(cls, peer: BgpPeer) -> bool:
        """Account for ``peer``'s keepalive now, or say to play it.  Both
        connections idle, the keepalive and its ACK going out at once on
        the peers' ports, holds longer than keepalives: quiet."""
        conn = peer.conn
        quiet = conn.quiet_exchange()
        if quiet is not None:
            return quiet.keepalive(quiet.ends.index(peer))
        out = conn.idle and conn.frame_for(conn._make_segment(
            ACK_PSH, _KEEPALIVE))
        if not out or out[0].name != peer.cfg.interface:
            return False
        tx, rx = out[0], out[0].peer()
        speaker = getattr(rx.node, "bgp", None)
        other = speaker.peers.get(peer.local_ip) if speaker else None
        far = other.conn if other is not None else None
        ack = (far is not None and other.established and far.idle
               and (far.local_port, far.remote_port, far.local)
               == (conn.remote_port, conn.local_port, conn.remote)
               and not rx.taps and far.frame_for(far._make_segment(
                   TcpFlags.ACK)))
        if not ack or ack[0] is not rx or any(
                end.hold_timer.interval <= end.keepalive_timer.interval
                for end in (peer, other)):
            return False
        return cls(peer, other, tx, rx, (out[1], ack[1])).keepalive(0)

    def __init__(self, peer: BgpPeer, other: BgpPeer, tx: Interface,
                 rx: Interface, frames) -> None:
        self.carry(peer.speaker.node.sim, (tx, rx), (rx, tx))
        self.ends, self.ports = (peer, other), (tx, rx)
        self.conns = (peer.conn, other.conn)
        self.frames = frames  # a keepalive's and an ACK's: their sizes
        self.latency, self.ack_latency = (
            tx.link.serialization_us(frame) + tx.link.propagation_us
            for frame in frames)
        self.hold = [end.hold_timer.deadline for end in self.ends]
        for end, port in zip(self.ends, self.ports):
            end.hold_timer.stop()
            end.conn.quiet_on = port.name
        self.unacked = [None, None]  # each end's keepalive: (tick, segment)
        self.flight = []  # (due, born, rank, to end, segment)

    def keepalive(self, i: int) -> bool:
        """End ``i`` ticks: account for its keepalive, or wake."""
        self.settle()
        now, port, back = self.sim.now, self.ports[i], self.ports[1 - i]
        if (self.unacked[i] or self.hold[1 - i][0] <= now + self.latency
                or port.link.certain_latency_us(port, self.frames[0])
                != self.latency
                or back.link.certain_latency_us(back, self.frames[1],
                                                at=now + self.latency)
                != self.ack_latency):
            self.wake()
            return False
        conn = self.conns[i]
        segment = conn._make_segment(ACK_PSH, _KEEPALIVE)
        self.unacked[i] = (now, segment)
        # the delivery's rank: after all scheduled so far, before the rest
        insort(self.flight, (now + self.latency, now,
                             self.sim.events_scheduled - 0.5, 1 - i, segment))
        conn.snd_nxt += segment.seq_space
        self._sent(i, 0, now)
        return True

    def _sent(self, end: int, kind: int, at: int) -> None:  # 0 keepalive
        self.conns[end]._segments_sent += 1
        self.ends[end].speaker.stack._counters.sent += 1
        self.sent(self.ports[end], self.frames[kind], 1, at)

    def next_tx(self, iface: Interface) -> int:  # the next ACK it sends
        to = self.ports.index(iface)
        return min((due for due, _born, _rank, end, segment in self.flight
                    if end == to and segment.data_len), default=NEVER)

    def settle(self) -> None:
        flight, sim = self.flight, self.sim
        while flight and sim.has_passed(*flight[0][:3]):
            due, _born, rank, to, segment = flight.pop(0)
            conn, ack = self.conns[to], segment.ack
            self.heard(self.ports[to], self.frames[not segment.data_len], 1)
            self.ends[to].speaker.stack._counters.delivered += 1
            if ack > conn._snd_una:  # TcpConnection._process_ack
                conn._snd_una = ack
                sent = self.unacked[to][1]
                if ack >= sent.seq + sent.seq_space:
                    self.unacked[to] = None
            if segment.data_len:  # TcpConnection._process_payload
                conn._rcv_nxt += segment.seq_space
                conn._bytes_delivered += segment.data_len
                self.hold[to] = (due + self.ends[to].hold_timer.interval, due)
                self._sent(to, 1, due)
                insort(flight, (due + self.ack_latency, due, rank, 1 - to,
                                conn._make_segment(TcpFlags.ACK)))

    def put_back(self) -> None:
        for end, (deadline, born) in zip(self.ends, self.hold):
            end.hold_timer.start_at(deadline, born=born)
            end.conn.quiet_on = None
        for conn, unacked in zip(self.conns, self.unacked):
            if unacked:
                tick, segment = unacked
                conn._unacked.append(
                    _Unacked(segment, segment.seq + segment.seq_space))
                conn._rto_timer.interval = conn._rto
                conn._rto_timer.start_at(tick + conn._rto, born=tick)
        for due, born, rank, to, segment in self.flight:
            frame = self.conns[1 - to].frame_for(segment)[1]
            self.sim.schedule_at(due, self.ports[to].deliver, frame,
                                 born=born, seq=rank)


class BgpSpeaker:
    """The per-router BGP process."""

    def __init__(
        self,
        node: Node,
        config: BgpConfig,
        stack: IpStack,
        tcp: TcpService,
        bfd: Optional[BfdManager] = None,
        rng=None,
    ) -> None:
        self.node = node
        self.config = config
        self.stack = stack
        self.tcp = tcp
        self.bfd = bfd
        if config.timers.jitter > 0.0 and rng is None:
            raise ValueError(f"{node.name}: timing jitter requires an rng")
        self.rng = rng
        self.rib_in = AdjRibIn()
        self.loc_rib = LocRib(multipath=config.multipath)
        # config.networks as values: _decide asks of every prefix whether
        # it is ours, and dataclass equality is a Python call per network
        self._originated = frozenset((network.address.value,
                                      network.prefix_len)
                                     for network in config.networks)
        self.crashed = False
        self.peers: dict[Ipv4Address, BgpPeer] = {}
        # peer address value -> the FIB next hop through that peer: one
        # shared object per peer, so an unchanged route compares by
        # identity
        self._nexthops: dict[int, NextHop] = {}
        self._iface_to_peers: dict[str, list[BgpPeer]] = {}
        tcp.listen(BGP_PORT, self._on_accept)
        node.on_interface_down(self._on_iface_down)
        node.on_interface_up(self._on_iface_up)
        if config.liveness is not None:
            node.on_impairment_cleared(self._on_impairment_cleared)
        node.bgp = self
        for nbr in config.neighbors:
            peer = BgpPeer(self, nbr)
            self.peers[nbr.peer_ip] = peer
            self._nexthops[nbr.peer_ip.value] = NextHop(
                interface=nbr.interface, via=nbr.peer_ip)
            self._iface_to_peers.setdefault(nbr.interface, []).append(peer)
            if nbr.bfd:
                if bfd is None:
                    raise ValueError(
                        f"{node.name}: neighbor {nbr.peer_ip} wants BFD but "
                        "no BfdManager supplied"
                    )
                monitor = None
                if config.liveness is not None:
                    monitor = NeighborMonitor(
                        config.liveness,
                        period_us=config.bfd_timers.tx_interval_us,
                        base_detection_us=config.bfd_timers.detection_time_us,
                        sim=node.sim,
                    )
                peer.bfd_session = bfd.create_session(
                    nbr.peer_ip, peer.local_ip, config.bfd_timers,
                    on_state_change=self._on_bfd_state, monitor=monitor,
                )
        # local networks enter the Loc-RIB before any session starts
        for network in config.networks:
            self._decide(network)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin connecting to neighbors."""
        for peer in self.peers.values():
            peer.start()

    def processing_delay(self) -> int:
        """Per-update bgpd latency, scaled by the timing noise."""
        timers = self.config.timers
        if timers.jitter == 0.0:
            return timers.processing_us
        return max(1, int(uniform(self.rng, 1.0, 1.0 + timers.jitter)
                          * timers.processing_us))

    def all_established(self) -> bool:
        return all(p.established for p in self.peers.values())

    # ------------------------------------------------------------------
    # TCP accept / interface / BFD events
    # ------------------------------------------------------------------
    def _on_accept(self, conn: TcpConnection) -> None:
        peer = self.peers.get(conn.remote)
        if peer is None:
            conn.abort()
            return
        peer.accept_connection(conn)

    def _on_iface_down(self, iface: Interface) -> None:
        if self.crashed:
            return
        # FRR fast fallover: directly connected eBGP drops instantly
        for peer in self._iface_to_peers.get(iface.name, ()):
            peer.down("interface-down")

    def _on_iface_up(self, iface: Interface) -> None:
        if self.crashed:
            return
        for peer in self._iface_to_peers.get(iface.name, ()):
            if peer.bfd_session is not None:
                peer.bfd_session.admin_reset()
            if peer.is_active_opener and peer.state is PeerState.IDLE:
                peer.retry_timer.start()

    def _on_bfd_state(self, session: BfdSession, is_up: bool) -> None:
        if is_up or self.crashed:
            return
        peer = self.peers.get(session.peer)
        if peer is not None and peer.established:
            self.node.log("bgp.bfd", f"{session.peer} BFD down -> session down")
            peer.down("bfd")

    def _on_impairment_cleared(self, iface: Interface) -> None:
        for peer in self._iface_to_peers.get(iface.name, ()):
            peer.clear_damping()

    def iface_link_degraded(self, iface_name: str) -> bool:
        """Gray-failure verdict for one next-hop interface: True when a
        BFD monitor on it measures loss at or above the degrade
        threshold.  ECMP depreferences (but does not withdraw) such
        next hops via the routing table's ``nexthop_bias``."""
        for peer in self._iface_to_peers.get(iface_name, ()):
            session = peer.bfd_session
            if (session is not None and session.monitor is not None
                    and session.monitor.degraded):
                return True
        return False

    # ------------------------------------------------------------------
    # route processing
    # ------------------------------------------------------------------
    def process_update(self, peer: BgpPeer, msg: BgpUpdate) -> None:
        if not peer.established:
            return
        if msg.is_end_of_rib:
            # End-of-RIB (RFC 4724 section 2): the peer's refresh is
            # complete — whatever is still stale was really withdrawn
            self.flush_stale(peer, "end-of-rib")
            return
        changed: set[Ipv4Network] = set()
        for prefix in msg.withdrawn:
            if self.rib_in.remove(peer.cfg.peer_ip, prefix):
                changed.add(prefix)
        if msg.nlri and msg.attributes is not None:
            if msg.attributes.contains_as(self.config.asn):
                pass  # receiver-side loop check: discard silently
            else:
                for prefix in msg.nlri:
                    self.rib_in.set(peer.cfg.peer_ip, prefix, msg.attributes)
                    changed.add(prefix)
        for prefix in sorted(changed):
            self._decide(prefix)

    def on_peer_established(self, peer: BgpPeer) -> None:
        """Initial table exchange toward the new peer."""
        for prefix in self.loc_rib.prefixes():
            peer.queue_route(prefix, self.loc_rib.best(prefix))
        if self.config.graceful_restart:
            # End-of-RIB follows the initial exchange (the queued
            # updates flush first — both ride call_soon, FIFO)
            self.node.sim.call_soon(peer.send_eor)

    def on_peer_down(self, peer: BgpPeer, reason: str) -> None:
        peer_ip = peer.cfg.peer_ip
        if self.config.graceful_restart and reason != "interface-down":
            # RFC 4724 helper mode: the session died but the peer's
            # forwarding plane may well still be running — keep its
            # paths as stale under the restart timer.  A local
            # interface-down is categorically different: the path
            # through that port is physically gone, so flush.
            if self.rib_in.mark_peer_stale(peer_ip):
                self.node.log("bgp.gr",
                              f"{peer_ip} down ({reason}): paths held stale")
                peer.arm_stale_timer()
                return
        if peer.stale_timer is not None:
            peer.stale_timer.stop()
        affected = self.rib_in.remove_peer(peer_ip)
        for prefix in sorted(affected):
            self._decide(prefix)

    def flush_stale(self, peer: BgpPeer, why: str) -> None:
        """Purge what the peer never refreshed (timer expiry or EOR)."""
        if peer.stale_timer is not None:
            peer.stale_timer.stop()
        swept = self.rib_in.sweep_stale(peer.cfg.peer_ip)
        if not swept:
            return
        self.node.log("bgp.gr",
                      f"{peer.cfg.peer_ip} {why}: flushed {len(swept)} stale")
        for prefix in sorted(swept):
            self._decide(prefix)

    # ------------------------------------------------------------------
    # agent lifecycle (crash / restart)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Agent death.  Sessions drop silently, the listener closes
        (stray segments now draw kernel RSTs), BFD goes dark.  The FIB
        and RIBs are left exactly as they were: the node keeps
        forwarding headless on frozen state until peers time out."""
        if self.crashed:
            return
        self.crashed = True
        for peer in self.peers.values():
            peer.crash()
        self.tcp.unlisten(BGP_PORT)
        if self.bfd is not None:
            for session in list(self.bfd.sessions.values()):
                session.stop()

    def restart(self, cold: bool) -> None:
        """Bring the agent back.  ``cold`` wipes protocol *and*
        forwarding state (power-cycle semantics); a graceful restart
        keeps the FIB and re-learns, marking everything stale until
        peers refresh it (RFC 4724 restarting side)."""
        if not self.crashed:
            return
        self.crashed = False
        self.tcp.listen(BGP_PORT, self._on_accept)
        if cold:
            self.stack.table.flush_proto("bgp")
            self.rib_in = AdjRibIn()
            self.loc_rib = LocRib(multipath=self.config.multipath)
            for network in self.config.networks:
                self._decide(network)
        else:
            for peer in self.peers.values():
                if self.rib_in.mark_peer_stale(peer.cfg.peer_ip):
                    peer.arm_stale_timer()
        if self.bfd is not None:
            for session in list(self.bfd.sessions.values()):
                session.admin_reset()
        for peer in self.peers.values():
            peer.start()

    # ------------------------------------------------------------------
    def _decide(self, prefix: Ipv4Network) -> None:
        """Run the decision process for one prefix; propagate changes."""
        candidates = self.rib_in.candidates(prefix)
        if (prefix.address.value, prefix.prefix_len) in self._originated:
            candidates.append(RibEntry(
                prefix,
                PathAttributes(as_path=(), next_hop=Ipv4Address(0)),
                peer_ip=None,
            ))
        old = self.loc_rib.chosen(prefix)
        chosen = self.loc_rib.decide(prefix, candidates)
        if chosen == old:
            return
        self._download_fib(prefix, chosen)
        best = chosen[0] if chosen else None
        for peer in self.peers.values():
            peer.queue_route(prefix, best)

    def summary(self) -> str:
        """`show bgp summary`-style rendering."""
        lines = [
            f"BGP router {self.node.name}, local AS {self.config.asn}, "
            f"router-id {self.config.router_id}",
            f"RIB entries: {len(self.loc_rib)} chosen, "
            f"{self.rib_in.entry_count()} received",
            f"{'Neighbor':<14} {'AS':>6} {'State':<12} {'PfxSnt':>6}",
        ]
        for peer in sorted(self.peers.values(),
                           key=lambda p: p.cfg.peer_ip.value):
            lines.append(
                f"{str(peer.cfg.peer_ip):<14} {peer.cfg.peer_asn:>6} "
                f"{peer.state.value:<12} {len(peer.adj_out):>6}"
            )
        return "\n".join(lines)

    def _download_fib(self, prefix: Ipv4Network, chosen: tuple[RibEntry, ...]) -> None:
        if not chosen:
            self.stack.table.withdraw(prefix)
            return
        if chosen[0].is_local:
            return  # connected route already covers it
        nexthops = tuple([self._nexthops[e.peer_ip.value] for e in chosen])
        self.stack.table.install(Route(
            prefix=prefix, nexthops=nexthops, proto="bgp",
            metric=BGP_ROUTE_METRIC,
        ))
