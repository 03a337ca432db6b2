"""TCP over the IP stack (the BGP transport).

A deliberately compact but *behaviourally real* TCP: three-way handshake,
byte-counted sequence numbers, cumulative ACKs with out-of-order
reassembly, retransmission with exponential backoff, FIN teardown and RST
abort.  Two simplifications, both documented in DESIGN.md:

* every application ``send()`` maps to one segment (callers must stay
  under the MSS — all BGP messages in these experiments do), so the
  receiver gets whole protocol messages back in order and BGP needs no
  re-framing layer;
* no congestion/flow control — DCN links here are never the bottleneck
  for control traffic.

Pure ACK segments are 66 bytes at L2 (14+20+32), which is what makes the
"Included in BGP communications is TCP acknowledgements" overhead of the
paper's Fig. 9 appear in our captures.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from repro.sim.timers import Timer
from repro.sim.units import MILLISECOND, SECOND
from repro.stack.addresses import Ipv4Address
from repro.stack.ipv4 import Ipv4Packet, PROTO_TCP
from repro.stack.payload import Payload, RawBytes
from repro.stack.tcp_segment import (
    ACK_BIT,
    ACK_PSH,
    FIN_BIT,
    RST_BIT,
    SYN_BIT,
    TcpFlags,
    TcpSegment,
)
from repro.net.interface import Interface
from repro.iputil.stack import IpStack
from repro.routing.ecmp import FlowKey
from repro.routing.table import NextHop

MSS = 1460
INITIAL_RTO_US = 200 * MILLISECOND
MAX_RTO_US = 4 * SECOND
MAX_RETRANSMITS = 8
TIME_WAIT_US = 1 * SECOND
INITIAL_SEQ = 1000  # deterministic ISS keeps traces reproducible


class TcpState(Enum):
    CLOSED = "closed"
    LISTEN = "listen"
    SYN_SENT = "syn-sent"
    SYN_RCVD = "syn-rcvd"
    ESTABLISHED = "established"
    FIN_WAIT_1 = "fin-wait-1"
    FIN_WAIT_2 = "fin-wait-2"
    CLOSE_WAIT = "close-wait"
    LAST_ACK = "last-ack"
    TIME_WAIT = "time-wait"


ConnKey = tuple[int, int, int, int]  # local_ip, local_port, remote_ip, remote_port


def _conn_key(local: Ipv4Address, lport: int, remote: Ipv4Address, rport: int) -> ConnKey:
    return (local.value, lport, remote.value, rport)


@dataclass(slots=True)
class _Unacked:
    segment: TcpSegment
    end_seq: int  # first sequence number after the segment
    retransmits: int = 0


def _settled(name: str) -> property:  # a field quiet keepalives may owe
    def read(self):
        if self.quiet_on is not None:
            self.quiet_exchange().settle()
        return getattr(self, name)
    return property(read)


class TcpConnection:
    """One TCP connection endpoint (``quiet_on``: see quiet_exchange).

    Every segment it sends has the same ECMP key (``flow``), so it keeps
    the next hop ``select_nexthop`` gave that key (:meth:`_next_hop`)
    while the table's ``change_count`` stands and the route cannot be
    biased (one next hop, or no ``nexthop_bias``)."""

    __slots__ = ("service", "node", "sim", "local", "local_port", "remote",
                 "remote_port", "state", "snd_nxt", "_snd_una", "_rcv_nxt",
                 "_fin_sent", "_reassembly", "_unacked", "_rto", "_rto_timer",
                 "on_receive", "on_established", "on_close", "_segments_sent",
                 "segments_retransmitted", "_bytes_delivered", "quiet_on",
                 "flow", "_route_at", "_hop", "_multipath")

    snd_una = _settled("_snd_una")
    rcv_nxt = _settled("_rcv_nxt")
    segments_sent = _settled("_segments_sent")
    bytes_delivered = _settled("_bytes_delivered")

    def __init__(
        self,
        service: "TcpService",
        local: Ipv4Address,
        local_port: int,
        remote: Ipv4Address,
        remote_port: int,
    ) -> None:
        self.service = service
        self.node = service.node
        self.sim = service.node.sim
        self.local = local
        self.local_port = local_port
        self.remote = remote
        self.remote_port = remote_port
        self.state = TcpState.CLOSED
        # sequence bookkeeping
        self.snd_nxt = INITIAL_SEQ
        self._snd_una = INITIAL_SEQ
        self._rcv_nxt = 0
        self._fin_sent = False
        self._reassembly: dict[int, TcpSegment] = {}
        self._unacked: list[_Unacked] = []
        self._rto = INITIAL_RTO_US
        self._rto_timer = Timer(self.sim, INITIAL_RTO_US, self._on_rto, name="tcp-rto")
        # application callbacks
        self.on_receive: Optional[Callable[[Payload], None]] = None
        self.on_established: Optional[Callable[[], None]] = None
        self.on_close: Optional[Callable[[str], None]] = None
        # stats
        self._segments_sent = 0
        self.segments_retransmitted = 0
        self._bytes_delivered = 0
        self.quiet_on: Optional[str] = None
        # IpStack.flow_for of every packet this endpoint sends
        self.flow = FlowKey(src=local.value, dst=remote.value,
                            proto=PROTO_TCP, src_port=local_port,
                            dst_port=remote_port)
        self._route_at = -1  # the table's change_count _hop was read at
        self._hop: Optional[NextHop] = None
        self._multipath = False

    # ------------------------------------------------------------------
    @property
    def key(self) -> ConnKey:
        return _conn_key(self.local, self.local_port, self.remote, self.remote_port)

    @property
    def established(self) -> bool:
        return self.state is TcpState.ESTABLISHED

    def __repr__(self) -> str:
        return (
            f"<TCP {self.local}:{self.local_port} <-> "
            f"{self.remote}:{self.remote_port} {self.state.value}>"
        )

    def quiet_exchange(self):
        """What holds its keepalives on port ``quiet_on``: any segment
        sent or received, and teardown, wake it first."""
        for quiet in (self.node.interfaces[self.quiet_on].quiet_tx
                      if self.quiet_on is not None else ()):
            if self in getattr(quiet, "conns", ()):
                return quiet
        return None

    def frame_for(self, segment: TcpSegment):
        """``IpStack.egress`` of ``segment``: its port and frame, if sent
        now it would go out at once."""
        packet = Ipv4Packet(src=self.local, dst=self.remote, proto=PROTO_TCP,
                            payload=segment)
        return self.service.stack.egress(packet, self.flow)

    def _next_hop(self) -> Optional[NextHop]:
        """``select_nexthop(remote, flow)``, read again only when the
        table changed or a bias could pick another of several hops."""
        table = self.service.stack.table
        if (self._route_at != table.change_count
                or (self._multipath and table.nexthop_bias is not None)):
            self._route_at = table.change_count
            route = table.lookup(self.remote)
            self._multipath = route is not None and len(route.nexthops) > 1
            self._hop = table.select_nexthop(self.remote, self.flow)
        return self._hop

    def _send_segment(self, segment: TcpSegment) -> None:
        self._segments_sent += 1
        self.service.stack.send_packet(
            Ipv4Packet(src=self.local, dst=self.remote, proto=PROTO_TCP,
                       payload=segment),
            self.flow, self._next_hop())

    @property
    def idle(self) -> bool:
        return (self.state is TcpState.ESTABLISHED
                and self._snd_una == self.snd_nxt and not self._unacked
                and not self._reassembly and not self._rto_timer.running)

    # ------------------------------------------------------------------
    # application API
    # ------------------------------------------------------------------
    def send(self, payload: Payload) -> None:
        """Send one application message as a single segment."""
        if self.state not in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT):
            raise RuntimeError(f"send() in state {self.state.value}")
        if payload.wire_size > MSS:
            raise ValueError(
                f"payload of {payload.wire_size} B exceeds MSS {MSS}; "
                "message-per-segment model requires smaller sends"
            )
        segment = self._make_segment(flags=ACK_PSH, payload=payload)
        self.snd_nxt += segment.seq_space
        self._transmit(segment, track=True)

    def close(self) -> None:
        """Graceful close (FIN)."""
        if self.state is TcpState.ESTABLISHED:
            self._send_fin()
            self.state = TcpState.FIN_WAIT_1
        elif self.state is TcpState.CLOSE_WAIT:
            self._send_fin()
            self.state = TcpState.LAST_ACK
        elif self.state in (TcpState.SYN_SENT, TcpState.SYN_RCVD):
            self.abort()

    def abort(self, reason: str = "aborted") -> None:
        """Hard close: send RST (if we ever got started) and tear down."""
        if self.state is not TcpState.CLOSED:
            rst = self._make_segment(flags=TcpFlags.RST)
            self._transmit(rst, track=False)
        self._teardown(reason)

    # ------------------------------------------------------------------
    # internals: sending
    # ------------------------------------------------------------------
    def _make_segment(
        self, flags: TcpFlags, payload: Payload = RawBytes(0)
    ) -> TcpSegment:
        return TcpSegment(
            src_port=self.local_port,
            dst_port=self.remote_port,
            seq=self.snd_nxt,
            ack=self._rcv_nxt,
            flags=flags,
            payload=payload,
        )

    def _send_syn(self, with_ack: bool) -> None:
        flags = TcpFlags.SYN | TcpFlags.ACK if with_ack else TcpFlags.SYN
        segment = self._make_segment(flags=flags)
        self.snd_nxt += segment.seq_space
        self._transmit(segment, track=True)

    def _send_fin(self) -> None:
        self._fin_sent = True
        segment = self._make_segment(flags=TcpFlags.FIN | TcpFlags.ACK)
        self.snd_nxt += segment.seq_space
        self._transmit(segment, track=True)

    def _send_pure_ack(self) -> None:
        self._transmit(self._make_segment(flags=TcpFlags.ACK), track=False)

    def _transmit(self, segment: TcpSegment, track: bool) -> None:
        if self.quiet_on is not None:
            self.quiet_exchange().wake()
        if track and segment.seq_space > 0:
            self._unacked.append(_Unacked(
                segment=segment, end_seq=segment.seq + segment.seq_space))
            if not self._rto_timer.running:
                self._rto_timer.start(self._rto)
        self._send_segment(segment)

    def _on_rto(self) -> None:
        if not self._unacked:
            return
        oldest = self._unacked[0]
        oldest.retransmits += 1
        if oldest.retransmits > MAX_RETRANSMITS:
            self.node.log("tcp.fail", f"{self!r} retransmit limit")
            self.abort("retransmit-timeout")
            return
        self.segments_retransmitted += 1
        # re-send with the *current* cumulative ack
        seg = oldest.segment
        resend = TcpSegment(
            src_port=seg.src_port, dst_port=seg.dst_port, seq=seg.seq,
            ack=self._rcv_nxt, flags=seg.flags, payload=seg.payload,
        )
        oldest.segment = resend
        self._send_segment(resend)
        self._rto = min(self._rto * 2, MAX_RTO_US)
        self._rto_timer.start(self._rto)

    # ------------------------------------------------------------------
    # internals: receiving
    # ------------------------------------------------------------------
    def handle_segment(self, segment: TcpSegment) -> None:
        if self.quiet_on is not None:
            self.quiet_exchange().wake()
        bits = segment.flags._value_
        if bits & RST_BIT:
            self._teardown("reset-by-peer")
            return

        if bits & ACK_BIT:
            self._process_ack(segment.ack)

        if self.state is TcpState.SYN_SENT:
            if bits & SYN_BIT and bits & ACK_BIT:
                self._rcv_nxt = segment.seq + segment.seq_space
                self.state = TcpState.ESTABLISHED
                self._send_pure_ack()
                if self.on_established:
                    self.on_established()
            return

        if self.state is TcpState.SYN_RCVD:
            if bits & ACK_BIT and self._snd_una == self.snd_nxt:
                self.state = TcpState.ESTABLISHED
                if self.on_established:
                    self.on_established()
            # fall through: the ACK may carry data

        if segment.seq_space > 0:
            self._process_payload(segment)

    def _process_ack(self, ack: int) -> None:
        if ack <= self._snd_una:
            return
        self._snd_una = ack
        # _unacked is in sequence order: drop the acknowledged lead, not
        # a rescan of every segment still in flight per ACK
        unacked = self._unacked
        acked = 0
        for entry in unacked:
            if entry.end_seq > ack:
                break
            acked += 1
        del unacked[:acked]
        if unacked:
            self._rto_timer.start(self._rto)
        else:
            self._rto = INITIAL_RTO_US
            self._rto_timer.stop()
        if self.state is TcpState.FIN_WAIT_1 and self._snd_una == self.snd_nxt:
            self.state = TcpState.FIN_WAIT_2
        elif self.state is TcpState.LAST_ACK and self._snd_una == self.snd_nxt:
            self._teardown("closed")

    def _process_payload(self, segment: TcpSegment) -> None:
        if segment.seq + segment.seq_space <= self._rcv_nxt:
            # pure duplicate — re-ack so the sender can advance
            self._send_pure_ack()
            return
        self._reassembly[segment.seq] = segment
        advanced = False
        while self._rcv_nxt in self._reassembly:
            seg = self._reassembly.pop(self._rcv_nxt)
            self._rcv_nxt += seg.seq_space
            advanced = True
            self._consume(seg)
        if advanced or segment.seq > self._rcv_nxt:
            self._send_pure_ack()

    def _consume(self, segment: TcpSegment) -> None:
        bits = segment.flags._value_
        if bits & SYN_BIT:
            return  # handshake bookkeeping only
        if segment.data_len > 0 and self.on_receive:
            self._bytes_delivered += segment.data_len
            self.on_receive(segment.payload)
        if bits & FIN_BIT:
            self._handle_fin()

    def _handle_fin(self) -> None:
        if self.state is TcpState.ESTABLISHED:
            self.state = TcpState.CLOSE_WAIT
            if self.on_close:
                self.on_close("peer-closed")
        elif self.state in (TcpState.FIN_WAIT_1, TcpState.FIN_WAIT_2):
            self.state = TcpState.TIME_WAIT
            self.sim.schedule_after(TIME_WAIT_US, self._time_wait_expire)

    def _time_wait_expire(self) -> None:
        if self.state is TcpState.TIME_WAIT:
            self._teardown("closed")

    def _teardown(self, reason: str) -> None:
        if self.quiet_on is not None:
            self.quiet_exchange().wake()
        already_closed = self.state is TcpState.CLOSED
        self.state = TcpState.CLOSED
        self._rto_timer.stop()
        self._unacked.clear()
        self.service._forget(self)
        if not already_closed and reason != "closed" and self.on_close:
            self.on_close(reason)


class TcpService:
    """Per-node TCP demultiplexer."""

    def __init__(self, stack: IpStack) -> None:
        self.stack = stack
        self.node = stack.node
        self.sim = stack.node.sim
        self._connections: dict[ConnKey, TcpConnection] = {}
        self._listeners: dict[int, Callable[[TcpConnection], None]] = {}
        self._ephemeral = 49152
        stack.register_proto(PROTO_TCP, self._on_packet)
        self.node.tcp = self

    # ------------------------------------------------------------------
    def listen(self, port: int, on_accept: Callable[[TcpConnection], None]) -> None:
        if port in self._listeners:
            raise ValueError(f"{self.node.name}: TCP port {port} in use")
        self._listeners[port] = on_accept

    def unlisten(self, port: int) -> None:
        self._listeners.pop(port, None)

    def connect(
        self,
        remote: Ipv4Address,
        remote_port: int,
        local: Optional[Ipv4Address] = None,
        local_port: Optional[int] = None,
    ) -> TcpConnection:
        """Active open.  ``local`` defaults to the egress interface
        address for ``remote`` (kernel source-address selection)."""
        if local is None:
            route = self.stack.table.lookup(remote)
            if route is None:
                raise RuntimeError(f"{self.node.name}: no route to {remote}")
            iface = self.node.interfaces[route.nexthops[0].interface]
            if iface.address is None:
                raise RuntimeError(f"{iface.full_name} has no address")
            local = iface.address
        if local_port is None:
            local_port = self._ephemeral
            self._ephemeral += 1
            if self._ephemeral > 65535:
                self._ephemeral = 49152
        conn = TcpConnection(self, local, local_port, remote, remote_port)
        self._connections[conn.key] = conn
        conn.state = TcpState.SYN_SENT
        conn._send_syn(with_ack=False)
        return conn

    def _forget(self, conn: TcpConnection) -> None:
        self._connections.pop(conn.key, None)

    # ------------------------------------------------------------------
    def _on_packet(self, packet: Ipv4Packet, iface: Interface) -> None:
        segment = packet.payload
        if not isinstance(segment, TcpSegment):
            return
        key = (packet.dst.value, segment.dst_port, packet.src.value,
               segment.src_port)  # _conn_key, inline: every segment
        conn = self._connections.get(key)
        if conn is not None:
            conn.handle_segment(segment)
            return
        # no connection: maybe a listener (SYN), else RST
        bits = segment.flags._value_
        if bits & SYN_BIT and not bits & ACK_BIT:
            on_accept = self._listeners.get(segment.dst_port)
            if on_accept is not None:
                conn = TcpConnection(
                    self, packet.dst, segment.dst_port, packet.src, segment.src_port
                )
                self._connections[conn.key] = conn
                conn.state = TcpState.SYN_RCVD
                conn._rcv_nxt = segment.seq + segment.seq_space
                on_accept(conn)
                conn._send_syn(with_ack=True)
                return
        if not bits & RST_BIT:
            # refuse with RST
            rst = TcpSegment(
                src_port=segment.dst_port, dst_port=segment.src_port,
                seq=segment.ack, ack=segment.seq + segment.seq_space,
                flags=TcpFlags.RST | TcpFlags.ACK,
            )
            self.stack.send_packet(
                Ipv4Packet(src=packet.dst, dst=packet.src, proto=PROTO_TCP,
                           payload=rst)
            )
