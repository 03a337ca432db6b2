"""Network interfaces.

An interface belongs to a node, may be cabled to a link, may carry an IPv4
address, and keeps tx/rx counters.  ``admin_up`` models ``ip link set
down`` at that end only — the failure primitive used throughout the
paper's test cases.

An exchange held as arithmetic instead of frame by frame
(:mod:`repro.net.quiet`) is carried in ``quiet_tx`` on the interfaces its
frames leave and ``quiet_rx`` on those they reach.  The interface settles
them before any counter is read and wakes them before anything happens
that they assumed would not: an admin change, a tap attached, or a frame
sent that is still on the wire when one of them next transmits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.stack.addresses import Ipv4Address, Ipv4Network, MacAddress
from repro.stack.ethernet import EthernetFrame

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.link import Link
    from repro.net.node import Node
    from repro.net.quiet import QuietExchange


FrameTap = Callable[["Interface", EthernetFrame, str], None]


@dataclass(slots=True)
class InterfaceCounters:
    tx_frames: int = 0
    tx_bytes: int = 0
    rx_frames: int = 0
    rx_bytes: int = 0
    tx_dropped_down: int = 0   # frames offered for tx while admin-down
    rx_dropped_down: int = 0   # frames arriving while admin-down
    tx_dropped_uncabled: int = 0
    tx_dropped_queue: int = 0  # egress buffer overflow (congestion)
    rx_dropped_corrupt: int = 0  # bad FCS at the receiving MAC (gray link)
    rx_duplicate: int = 0      # extra copies delivered by a flaky link


class Interface:
    """One port of a node."""

    __slots__ = ("node", "name", "mac", "port_number", "link", "admin_up",
                 "address", "network", "_counters", "taps", "quiet_tx",
                 "quiet_rx")

    def __init__(
        self,
        node: "Node",
        name: str,
        mac: MacAddress,
        port_number: int,
    ) -> None:
        self.node = node
        self.name = name
        self.mac = mac
        # 1-based port number: the value MR-MTP appends when deriving child
        # VIDs ("the port number on which the request arrived").
        self.port_number = port_number
        self.link: Optional["Link"] = None
        self.admin_up: bool = True
        self.address: Optional[Ipv4Address] = None
        self.network: Optional[Ipv4Network] = None
        self._counters = InterfaceCounters()
        # capture taps: called for every frame tx'd / rx'd on this port.
        # A tuple, so that attaching one has to go through add_tap().
        self.taps: tuple[FrameTap, ...] = ()
        self.quiet_tx: Optional[tuple["QuietExchange", ...]] = None
        self.quiet_rx: Optional[tuple["QuietExchange", ...]] = None

    # ------------------------------------------------------------------
    @property
    def counters(self) -> InterfaceCounters:
        self.settle()
        return self._counters

    def add_tap(self, tap: FrameTap) -> None:
        """Have ``tap(iface, frame, "tx" | "rx")`` see every frame from
        now on — so from now on every frame has to exist."""
        self.wake()
        self.taps += (tap,)

    def remove_tap(self, tap: FrameTap) -> None:
        taps = list(self.taps)
        taps.remove(tap)
        self.taps = tuple(taps)

    def settle(self) -> None:
        for quiet in (self.quiet_tx or ()) + (self.quiet_rx or ()):
            quiet.settle()

    def wake(self) -> None:
        for quiet in (self.quiet_tx or ()) + (self.quiet_rx or ()):
            quiet.wake()

    def _meet_quiet(self, frame: EthernetFrame) -> None:
        """``frame`` is about to go out: wake each exchange carried this
        way whose next transmission it would still be on the wire for."""
        carried, link = self.quiet_tx, self.link
        for quiet in carried:
            quiet.settle()  # the line's state must be the present one
        done = (max(link._next_free[self], link.sim.now)
                + link.serialization_us(frame))  # it leaves the transmitter
        for quiet in carried:
            if quiet.next_tx(self) < done:
                quiet.wake()

    @property
    def full_name(self) -> str:
        return f"{self.node.name}:{self.name}"

    @property
    def cabled(self) -> bool:
        return self.link is not None

    def assign_address(self, address: Ipv4Address, prefix_len: int) -> None:
        self.address = address
        self.network = Ipv4Network.of(address, prefix_len)
        self.node.address_assigned(self)

    def peer(self) -> Optional["Interface"]:
        """The interface at the other end of the cable (if cabled)."""
        if self.link is None:
            return None
        return self.link.other_end(self)

    # ------------------------------------------------------------------
    # admin state — the paper's failure injection primitive
    # ------------------------------------------------------------------
    def set_admin(self, up: bool) -> None:
        """Administratively raise/lower the interface.

        Lowering notifies the local node immediately (kernel link-down
        event); the peer sees nothing.  Raising also notifies only the
        local node: protocols apply their own acceptance rules (MR-MTP's
        Slow-to-Accept, BGP session re-establishment).
        """
        if self.admin_up == up:
            return
        self.wake()
        self.admin_up = up
        if up:
            self.node.interface_came_up(self)
        else:
            self.node.interface_went_down(self)

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def send(self, frame: EthernetFrame) -> bool:
        """Offer a frame for transmission.  Returns True if it got onto
        the wire (it may still be dropped at the far end)."""
        if self.quiet_tx is not None:
            self._meet_quiet(frame)
        counters = self._counters
        if not self.admin_up:
            counters.tx_dropped_down += 1
            return False
        if self.link is None:
            counters.tx_dropped_uncabled += 1
            return False
        if not self.link.transmit(self, frame):
            return False  # egress queue overflow (counted by the link)
        counters.tx_frames += 1
        counters.tx_bytes += frame.wire_size
        for tap in self.taps:
            tap(self, frame, "tx")
        return True

    def deliver(self, frame: EthernetFrame, corrupt: bool = False,
                duplicate: bool = False) -> None:
        """Called by the link when a frame arrives at this end.

        ``corrupt`` frames model a bad FCS: the receiving MAC counts and
        drops them without handing them to the node, so the protocol
        above sees pure loss while the counters tell the gray-failure
        story.  ``duplicate`` marks the extra copy a flaky link
        delivered; it is counted and then processed normally.
        """
        counters = self._counters
        if not self.admin_up:
            counters.rx_dropped_down += 1
            return
        if corrupt:
            counters.rx_dropped_corrupt += 1
            return
        if duplicate:
            counters.rx_duplicate += 1
        counters.rx_frames += 1
        counters.rx_bytes += frame.wire_size
        for tap in self.taps:
            tap(self, frame, "rx")
        self.node.handle_frame(self, frame)

    def __repr__(self) -> str:
        state = "up" if self.admin_up else "DOWN"
        return f"<Interface {self.full_name} {state}>"
