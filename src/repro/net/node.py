"""Nodes: the base device class.

A node owns interfaces and dispatches received frames to protocol
handlers registered per ethertype.  Protocol implementations (the IP
stack, BGP's TCP sessions, MR-MTP) attach themselves as services and
subscribe to interface up/down events — the local "kernel" notification
the paper relies on for instant same-side failure detection.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import Simulator
from repro.sim.trace import TraceLog
from repro.stack.addresses import MacAddress
from repro.stack.ethernet import EthernetFrame
from repro.net.interface import Interface

FrameHandler = Callable[[Interface, EthernetFrame], None]
IfaceListener = Callable[[Interface], None]

_mac_counter = 0


def _next_mac() -> MacAddress:
    global _mac_counter
    _mac_counter += 1
    return MacAddress.from_index(_mac_counter)


class Node:
    """A device: server, ToR, aggregation spine or top spine."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        trace: Optional[TraceLog] = None,
        tier: int = 0,
    ) -> None:
        self.sim = sim
        self.name = name
        self.trace = trace if trace is not None else TraceLog(sim, enabled=False)
        # Tier in the folded-Clos: 0 = server, 1 = ToR, 2.. = spines.
        self.tier = tier
        self.interfaces: dict[str, Interface] = {}
        self._handlers: dict[int, FrameHandler] = {}
        self._down_listeners: list[IfaceListener] = []
        self._up_listeners: list[IfaceListener] = []
        self._impair_listeners: list[IfaceListener] = []
        self._address_listeners: list[IfaceListener] = []

    # ------------------------------------------------------------------
    # interfaces
    # ------------------------------------------------------------------
    def add_interface(self, name: Optional[str] = None) -> Interface:
        port_number = len(self.interfaces) + 1
        if name is None:
            name = f"eth{port_number}"
        if name in self.interfaces:
            raise ValueError(f"{self.name} already has interface {name}")
        iface = Interface(self, name, _next_mac(), port_number)
        self.interfaces[name] = iface
        return iface

    def interface(self, name: str) -> Interface:
        return self.interfaces[name]

    # ------------------------------------------------------------------
    # frame dispatch
    # ------------------------------------------------------------------
    def register_handler(self, ethertype: int, handler: FrameHandler) -> None:
        if ethertype in self._handlers:
            raise ValueError(
                f"{self.name}: ethertype {ethertype:#06x} already handled"
            )
        self._handlers[ethertype] = handler

    def handle_frame(self, iface: Interface, frame: EthernetFrame) -> None:
        handler = self._handlers.get(frame.ethertype)
        if handler is None:
            self.log("frame.unhandled", f"no handler for {frame.ethertype:#06x}")
            return
        handler(iface, frame)

    # ------------------------------------------------------------------
    # interface events
    # ------------------------------------------------------------------
    def on_interface_down(self, listener: IfaceListener) -> None:
        self._down_listeners.append(listener)

    def on_interface_up(self, listener: IfaceListener) -> None:
        self._up_listeners.append(listener)

    def interface_went_down(self, iface: Interface) -> None:
        self.log("iface.down", f"{iface.name} admin down")
        for listener in list(self._down_listeners):
            listener(iface)

    def interface_came_up(self, iface: Interface) -> None:
        self.log("iface.up", f"{iface.name} admin up")
        for listener in list(self._up_listeners):
            listener(iface)

    def on_address_assigned(self, listener: IfaceListener) -> None:
        """Subscribe to ``Interface.assign_address`` on this node's ports
        (the IP stack keeps its local-address set current with it)."""
        self._address_listeners.append(listener)

    def address_assigned(self, iface: Interface) -> None:
        for listener in list(self._address_listeners):
            listener(iface)

    def on_impairment_cleared(self, listener: IfaceListener) -> None:
        """Subscribe to link-repair notifications (an impairment on the
        interface's link was cleared by the failure injector).  A real
        deployment's analogue is the optics/NOC repair event that closes
        an incident."""
        self._impair_listeners.append(listener)

    def impairment_cleared(self, iface: Interface) -> None:
        # deliberately not logged: only liveness-enabled protocols
        # subscribe, so baseline traces stay byte-identical
        for listener in list(self._impair_listeners):
            listener(iface)

    # ------------------------------------------------------------------
    def log(self, category: str, message: str, **data) -> None:
        trace = self.trace
        if trace.live:  # skip record construction when nobody is watching
            trace.emit(self.name, category, message, **data)

    def __repr__(self) -> str:
        return f"<Node {self.name} tier={self.tier}>"
