"""UDP sockets over the IP stack (the BFD transport)."""

from __future__ import annotations

from typing import Callable, Optional

from repro.stack.addresses import Ipv4Address
from repro.stack.ipv4 import Ipv4Packet, PROTO_UDP
from repro.stack.payload import Payload
from repro.stack.udp import UdpDatagram
from repro.net.interface import Interface
from repro.iputil.stack import IpStack

# callback(payload, src_ip, src_port, ingress_interface)
UdpCallback = Callable[[Payload, Ipv4Address, int, Interface], None]


class UdpService:
    """Port-demultiplexed UDP endpoints."""

    def __init__(self, stack: IpStack) -> None:
        self.stack = stack
        self.node = stack.node
        self._sockets: dict[int, UdpCallback] = {}
        stack.register_proto(PROTO_UDP, self._on_packet)
        self.node.udp = self

    def open(self, port: int, callback: UdpCallback) -> None:
        if port in self._sockets:
            raise ValueError(f"{self.node.name}: UDP port {port} in use")
        self._sockets[port] = callback

    def close(self, port: int) -> None:
        self._sockets.pop(port, None)

    def send(
        self,
        dst: Ipv4Address,
        dst_port: int,
        src_port: int,
        payload: Payload,
        src: Optional[Ipv4Address] = None,
        ttl: int = 64,
    ) -> None:
        """Send a datagram.  ``src`` defaults to the egress interface's
        address, resolved by a routing lookup (as the kernel does)."""
        if src is None:
            route = self.stack.table.lookup(dst)
            if route is None:
                self.stack._counters.dropped_no_route += 1
                return
            iface = self.node.interfaces.get(route.nexthops[0].interface)
            if iface is None or iface.address is None:
                self.stack._counters.dropped_no_route += 1
                return
            src = iface.address
        datagram = UdpDatagram(src_port=src_port, dst_port=dst_port, payload=payload)
        packet = Ipv4Packet(src=src, dst=dst, proto=PROTO_UDP,
                            payload=datagram, ttl=ttl)
        self.stack.send_packet(packet)

    def _on_packet(self, packet: Ipv4Packet, iface: Interface) -> None:
        datagram = packet.payload
        if not isinstance(datagram, UdpDatagram):
            return
        callback = self._sockets.get(datagram.dst_port)
        if callback is None:
            return
        callback(datagram.payload, packet.src, datagram.src_port, iface)
