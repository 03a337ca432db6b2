"""IPv4 host stack: ARP + forwarding + local delivery.

One :class:`IpStack` instance per node on the BGP data path.  Servers run
it with ``forwarding=False`` and a default route to their ToR; routers run
it with forwarding enabled and BGP programming the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.sim.units import MILLISECOND, SECOND
from repro.stack.addresses import BROADCAST_MAC, Ipv4Address, MacAddress
from repro.stack.arp import ArpMessage, ArpOp
from repro.stack.ethernet import (
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    EthernetFrame,
)
from repro.stack.icmp import IcmpMessage, IcmpType
from repro.stack.ipv4 import Ipv4Packet, PROTO_ICMP
from repro.routing.ecmp import FlowKey
from repro.routing.table import NextHop, Route, RoutingTable
from repro.net.interface import Interface
from repro.net.node import Node

ARP_RETRY_US = 200 * MILLISECOND
ARP_MAX_TRIES = 3

ProtoHandler = Callable[[Ipv4Packet, Interface], None]


@dataclass
class IpCounters:
    sent: int = 0
    forwarded: int = 0
    delivered: int = 0
    dropped_no_route: int = 0
    dropped_ttl: int = 0
    dropped_arp_fail: int = 0
    dropped_iface_down: int = 0


@dataclass
class _PendingArp:
    tries: int = 0
    queue: list[Ipv4Packet] = field(default_factory=list)
    timer_handle: object = None


class IpStack:
    """ARP + IPv4 forwarding service attached to a node."""

    def __init__(self, node: Node, forwarding: bool = True, salt: int = 0) -> None:
        self.node = node
        self.sim = node.sim
        self.forwarding = forwarding
        # Optional pre-forwarding hook: ``intercept(iface, packet) -> bool``.
        # MR-MTP installs this on ToRs to pull rack traffic into its
        # encapsulated data plane; True means the packet was consumed.
        self.intercept = None
        self.table = RoutingTable(name=node.name, sim=node.sim, salt=salt)
        self._counters = IpCounters()
        self._proto_handlers: dict[int, ProtoHandler] = {}
        # per-interface ARP cache and pending queues, keyed by (port,
        # address value): every frame sent reads the cache
        self._arp_cache: dict[tuple[str, int], MacAddress] = {}
        self._arp_pending: dict[tuple[str, int], _PendingArp] = {}
        # ICMP: echo responder built in; listeners get replies and errors
        self._icmp_listeners: list = []
        self.register_proto(PROTO_ICMP, self._on_icmp)
        node.register_handler(ETHERTYPE_IPV4, self._on_ip_frame)
        node.register_handler(ETHERTYPE_ARP, self._on_arp_frame)
        # addresses delivered locally: read per received frame, rebuilt
        # only when an interface is (re)addressed
        self._refresh_local_addresses()
        node.on_address_assigned(self._refresh_local_addresses)
        node.ip = self  # conventional attachment point

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def install_connected_routes(self) -> None:
        """One connected route per addressed interface."""
        for iface in self.node.interfaces.values():
            if iface.address is not None and iface.network is not None:
                self.table.install(
                    Route(
                        prefix=iface.network,
                        nexthops=(NextHop(interface=iface.name),),
                        proto="connected",
                    )
                )

    @property
    def counters(self) -> IpCounters:
        """Settled first (quiet exchanges count packets lazily)."""
        for iface in self.node.interfaces.values():
            iface.settle()
        return self._counters

    def local_addresses(self) -> frozenset[Ipv4Address]:
        return self._local_addresses

    def _refresh_local_addresses(self, _iface: Optional[Interface] = None) -> None:
        self._local_addresses: frozenset[Ipv4Address] = frozenset(
            iface.address
            for iface in self.node.interfaces.values()
            if iface.address is not None
        )
        # what each received frame tests: ints hash without a Python call
        self._local_values = frozenset(
            address.value for address in self._local_addresses)

    def register_proto(self, proto: int, handler: ProtoHandler) -> None:
        if proto in self._proto_handlers:
            raise ValueError(f"{self.node.name}: IP proto {proto} already bound")
        self._proto_handlers[proto] = handler

    def address_on(self, iface_name: str) -> Ipv4Address:
        address = self.node.interfaces[iface_name].address
        if address is None:
            raise ValueError(f"{self.node.name}:{iface_name} has no address")
        return address

    # ------------------------------------------------------------------
    # send path
    # ------------------------------------------------------------------
    def send_packet(self, packet: Ipv4Packet, flow: Optional[FlowKey] = None,
                    nexthop: Optional[NextHop] = None) -> None:
        """Route and transmit a locally originated packet (``nexthop``:
        what ``table.select_nexthop(packet.dst, flow)`` gives now, if the
        caller kept it)."""
        self._counters.sent += 1
        self._route_and_emit(packet, flow, nexthop=nexthop)

    def forward_local(self, packet: Ipv4Packet) -> None:
        """Emit a packet that arrived by other means (MR-MTP de-encapsulation
        at a ToR) toward its destination — typically a connected rack route."""
        self._counters.forwarded += 1
        self._route_and_emit(packet)

    def flow_for(self, packet: Ipv4Packet) -> FlowKey:
        """The ECMP key of ``packet``; transport ports participate in the
        hash when present."""
        src_port = getattr(packet.payload, "src_port", 0)
        dst_port = getattr(packet.payload, "dst_port", 0)
        return FlowKey(
            src=packet.src.value,
            dst=packet.dst.value,
            proto=packet.proto,
            src_port=src_port,
            dst_port=dst_port,
        )

    def _route_and_emit(self, packet: Ipv4Packet, flow: Optional[FlowKey] = None,
                        notify_unreachable: bool = False,
                        nexthop: Optional[NextHop] = None) -> None:
        if nexthop is None:
            if flow is None:
                flow = self.flow_for(packet)
            nexthop = self.table.select_nexthop(packet.dst, flow)
        if nexthop is None:
            self._counters.dropped_no_route += 1
            self.node.log("ip.drop", f"no route to {packet.dst}")
            if notify_unreachable:
                self._send_icmp_error(packet, IcmpType.DEST_UNREACHABLE)
            return
        iface = self.node.interfaces.get(nexthop.interface)
        if iface is None or not iface.admin_up or iface.link is None:
            self._counters.dropped_iface_down += 1
            return
        arp_target = nexthop.via if nexthop.via is not None else packet.dst
        self._emit_via(iface, arp_target, packet)

    def egress(self, packet: Ipv4Packet, flow: FlowKey
               ) -> Optional[tuple[Interface, EthernetFrame]]:
        """The port and frame :meth:`send_packet` would put ``packet`` on
        at once (routed, port up, neighbour resolved), or None."""
        nexthop = self.table.select_nexthop(packet.dst, flow)
        iface = nexthop and self.node.interfaces.get(nexthop.interface)
        if not iface or not iface.admin_up or not iface.cabled:
            return None
        mac = self._arp_cache.get((iface.name,
                                   (nexthop.via or packet.dst).value))
        return mac and (iface, EthernetFrame(
            dst=mac, src=iface.mac, ethertype=ETHERTYPE_IPV4, payload=packet))

    def _emit_via(self, iface: Interface, arp_target: Ipv4Address, packet: Ipv4Packet) -> None:
        mac = self._arp_cache.get((iface.name, arp_target.value))
        if mac is None:
            self._arp_enqueue(iface, arp_target, packet)
            return
        iface.send(
            EthernetFrame(dst=mac, src=iface.mac, ethertype=ETHERTYPE_IPV4,
                          payload=packet)
        )

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def _on_ip_frame(self, iface: Interface, frame: EthernetFrame) -> None:
        packet = frame.payload
        if not isinstance(packet, Ipv4Packet):
            return
        if packet.dst.value in self._local_values:
            self._deliver_local(packet, iface)
            return
        if self.intercept is not None and self.intercept(iface, packet):
            return
        if not self.forwarding:
            return
        if packet.ttl <= 1:
            self._counters.dropped_ttl += 1
            self.node.log("ip.drop", f"TTL expired for {packet.dst}")
            self._send_icmp_error(packet, IcmpType.TIME_EXCEEDED)
            return
        self._counters.forwarded += 1
        self._route_and_emit(packet.decrement_ttl(),
                             notify_unreachable=True)

    def _deliver_local(self, packet: Ipv4Packet, iface: Interface) -> None:
        handler = self._proto_handlers.get(packet.proto)
        if handler is None:
            self.node.log("ip.unreach", f"no proto handler {packet.proto}")
            return
        self._counters.delivered += 1
        handler(packet, iface)

    # ------------------------------------------------------------------
    # ICMP (echo responder + error generation, RFC 792)
    # ------------------------------------------------------------------
    def add_icmp_listener(self, listener) -> None:
        """``listener(message, src_ip)`` sees echo replies and errors
        delivered to this host (ping/traceroute hook)."""
        self._icmp_listeners.append(listener)

    def remove_icmp_listener(self, listener) -> None:
        self._icmp_listeners.remove(listener)

    def send_echo_request(self, dst: Ipv4Address, identifier: int,
                          sequence: int, ttl: int = 64,
                          data_bytes: int = 56) -> None:
        message = IcmpMessage(IcmpType.ECHO_REQUEST, identifier=identifier,
                              sequence=sequence, data_bytes=data_bytes)
        src = self._source_address_for(dst)
        if src is None:
            self._counters.dropped_no_route += 1
            return
        self.send_packet(Ipv4Packet(src=src, dst=dst, proto=PROTO_ICMP,
                                    payload=message, ttl=ttl))

    def _source_address_for(self, dst: Ipv4Address) -> Optional[Ipv4Address]:
        route = self.table.lookup(dst)
        if route is None:
            return None
        iface = self.node.interfaces.get(route.nexthops[0].interface)
        return iface.address if iface is not None else None

    def _on_icmp(self, packet: Ipv4Packet, iface: Interface) -> None:
        message = packet.payload
        if not isinstance(message, IcmpMessage):
            return
        if message.icmp_type is IcmpType.ECHO_REQUEST:
            reply = IcmpMessage(IcmpType.ECHO_REPLY,
                                identifier=message.identifier,
                                sequence=message.sequence,
                                data_bytes=message.data_bytes)
            self.send_packet(Ipv4Packet(src=packet.dst, dst=packet.src,
                                        proto=PROTO_ICMP, payload=reply))
            return
        for listener in list(self._icmp_listeners):
            listener(message, packet.src)

    def _send_icmp_error(self, offending: Ipv4Packet, icmp_type: IcmpType) -> None:
        # never generate errors about ICMP errors (RFC 792 loop guard)
        if (isinstance(offending.payload, IcmpMessage)
                and offending.payload.is_error):
            return
        src = self._source_address_for(offending.src)
        if src is None:
            return
        error = IcmpMessage(
            icmp_type,
            # quote the offending IP header + 8 payload bytes
            quoted_bytes=20 + min(8, offending.payload.wire_size),
        )
        self.send_packet(Ipv4Packet(src=src, dst=offending.src,
                                    proto=PROTO_ICMP, payload=error))

    # ------------------------------------------------------------------
    # ARP
    # ------------------------------------------------------------------
    def _arp_enqueue(self, iface: Interface, target: Ipv4Address, packet: Ipv4Packet) -> None:
        key = (iface.name, target.value)
        pending = self._arp_pending.get(key)
        if pending is None:
            pending = _PendingArp()
            self._arp_pending[key] = pending
            self._arp_send_request(iface, target)
            pending.tries = 1
            pending.timer_handle = self.sim.schedule_after(
                ARP_RETRY_US, self._arp_retry, iface, target
            )
        pending.queue.append(packet)

    def _arp_send_request(self, iface: Interface, target: Ipv4Address) -> None:
        if iface.address is None:
            return
        request = ArpMessage(
            op=ArpOp.REQUEST,
            sender_mac=iface.mac,
            sender_ip=iface.address,
            target_ip=target,
        )
        iface.send(
            EthernetFrame(dst=BROADCAST_MAC, src=iface.mac,
                          ethertype=ETHERTYPE_ARP, payload=request)
        )

    def _arp_retry(self, iface: Interface, target: Ipv4Address) -> None:
        key = (iface.name, target.value)
        pending = self._arp_pending.get(key)
        if pending is None:
            return
        if pending.tries >= ARP_MAX_TRIES:
            self._counters.dropped_arp_fail += len(pending.queue)
            del self._arp_pending[key]
            self.node.log("arp.fail", f"no reply for {target} on {iface.name}")
            return
        pending.tries += 1
        self._arp_send_request(iface, target)
        pending.timer_handle = self.sim.schedule_after(
            ARP_RETRY_US, self._arp_retry, iface, target
        )

    def _on_arp_frame(self, iface: Interface, frame: EthernetFrame) -> None:
        msg = frame.payload
        if not isinstance(msg, ArpMessage):
            return
        # Learn the sender mapping opportunistically (gratuitous learning).
        self._arp_cache[(iface.name, msg.sender_ip.value)] = msg.sender_mac
        if msg.op is ArpOp.REQUEST and msg.target_ip == iface.address:
            reply = ArpMessage(
                op=ArpOp.REPLY,
                sender_mac=iface.mac,
                sender_ip=iface.address,
                target_ip=msg.sender_ip,
                target_mac=msg.sender_mac,
            )
            iface.send(
                EthernetFrame(dst=msg.sender_mac, src=iface.mac,
                              ethertype=ETHERTYPE_ARP, payload=reply)
            )
        # Flush anything queued on this resolution.
        key = (iface.name, msg.sender_ip.value)
        pending = self._arp_pending.pop(key, None)
        if pending is not None:
            if pending.timer_handle is not None:
                pending.timer_handle.cancel()
            for packet in pending.queue:
                self._emit_via(iface, msg.sender_ip, packet)
