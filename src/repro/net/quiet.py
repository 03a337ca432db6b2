"""Exchanges held as arithmetic (DESIGN "Steady-state frame path").

A neighbour saying it is alive over a link nothing else touches — an
MR-MTP hello, a BFD packet, what follows a BGP keepalive — is a pattern
whose effects are known in advance.  A :class:`QuietExchange` holds it
as arithmetic: it settles every counter before anybody reads it, wakes
before anything it assumed changes, puts its events back at the rank they
would have had, and counts as history what ``Simulator.has_passed`` says
has fired.  Only the interfaces hold one (``quiet_tx`` where its frames
leave, ``quiet_rx`` where they arrive): a reference from protocol state
would have the pickler walk the fabric through it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.interface import Interface
    from repro.sim.engine import Simulator

NEVER = 1 << 63  # the next_tx of an exchange with nothing to send


class QuietExchange:
    """A family provides :meth:`settle` and :meth:`put_back`."""

    __slots__ = ("sim", "_tx", "_rx")

    def carry(self, sim: "Simulator", tx: tuple["Interface", ...],
              rx: tuple["Interface", ...]) -> None:
        self.sim, self._tx, self._rx = sim, tx, rx
        for iface in tx:
            iface.quiet_tx = (iface.quiet_tx or ()) + (self,)
        for iface in rx:
            iface.quiet_rx = (iface.quiet_rx or ()) + (self,)

    def sent(self, port: "Interface", frame, count: int, last: int) -> None:
        """``count`` frames like ``frame`` left ``port`` on an idle line,
        the last at ``last``."""
        nbytes, link = count * frame.wire_size, port.link
        port._counters.tx_frames += count
        port._counters.tx_bytes += nbytes
        link._frames_carried += count
        link._bytes_carried += nbytes
        free = last + link.serialization_us(frame)
        if free > link._next_free[port]:  # exchanges settle out of order
            link._next_free[port] = free

    def heard(self, port: "Interface", frame, count: int) -> None:
        """``count`` frames like ``frame`` arrived at ``port``."""
        port._counters.rx_frames += count
        port._counters.rx_bytes += count * frame.wire_size
        self.sim.events_settled += count

    def next_tx(self, iface: "Interface") -> int:
        """When it next puts a frame on ``iface``'s line (settled): a
        frame still on the wire then wakes it.  Any frame, by default."""
        return -1

    def settle(self) -> None:
        """Bring every counter up to the present; stay quiet."""

    def put_back(self) -> None:
        """Put the exchange's real events back in the queue."""

    def wake(self) -> None:
        """Settle, unregister from the interfaces and put back — once."""
        if self._tx is None:
            return
        self.settle()
        for iface in self._tx:
            iface.quiet_tx = tuple(q for q in iface.quiet_tx
                                   if q is not self) or None
        for iface in self._rx:
            iface.quiet_rx = tuple(q for q in iface.quiet_rx
                                   if q is not self) or None
        self._tx = self._rx = None
        self.put_back()
