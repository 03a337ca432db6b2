"""Per-port neighbor liveness: Quick-to-Detect, Slow-to-Accept.

The paper's section IV.B:

* **Quick-to-Detect** — a neighbor is assumed down after missing a
  *single* hello: the dead timer is 2x the 50 ms hello interval (100 ms),
  not the classical 3x.  Any received MR-MTP frame counts as a hello.
* **Slow-to-Accept** — after a failure, the neighbor is only accepted
  back after three *consecutive* hellos (gaps under the dead interval),
  which dampens a toggling interface the way BGP needs route-flap
  damping for.

With an attached :class:`~repro.liveness.NeighborMonitor` (the
``mtp-adaptive`` stack) two extra behaviors kick in: the dead interval
widens on a measured-lossy link (Quick-to-Detect keeps the 100 ms bound
only where the link is clean enough to deserve it), and a neighbor that
keeps flapping is held in quarantine past Slow-to-Accept until its
damping penalty decays to the reuse threshold.

In the steady state — both ends hold each other ``UP`` and nothing else
is happening on the link — a direction's whole exchange is a hello every
50 ms, its delivery 6 us later and the dead timer that delivery re-arms.
:class:`QuietHello` holds that as arithmetic (DESIGN "Steady-state frame
path"): nothing is scheduled for the direction until something wakes it.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Callable, Optional

from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer, Timer
from repro.stack.ethernet import EthernetFrame
from repro.net.interface import Interface
from repro.net.quiet import QuietExchange
from repro.core.config import MtpTimers
from repro.liveness import NeighborMonitor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.protocol import MtpNode


class NeighborState(Enum):
    UNKNOWN = "unknown"      # never heard from
    UP = "up"
    DEAD = "dead"            # dead timer fired / local port down
    PROBATION = "probation"  # hearing hellos again, counting acceptance


class PortNeighbor:
    """Liveness and direction state for the device at the far end of one
    port."""

    __slots__ = ("sim", "port", "timers", "on_up", "on_down", "monitor",
                 "on_damp", "iface", "state", "tier", "peer_gen",
                 "stale_held", "_consecutive", "_last_rx", "times_died",
                 "_suppress_flagged", "_dead_timer")

    def __init__(
        self,
        sim: Simulator,
        port: str,
        timers: MtpTimers,
        on_up: Callable[["PortNeighbor"], None],
        on_down: Callable[["PortNeighbor", str], None],
        monitor: Optional[NeighborMonitor] = None,
        on_damp: Optional[Callable[["PortNeighbor", str], None]] = None,
        iface: Optional[Interface] = None,
    ) -> None:
        self.sim = sim
        self.port = port
        self.timers = timers
        self.on_up = on_up
        self.on_down = on_down
        self.monitor = monitor
        self.on_damp = on_damp
        # the local port, which a neighbor leaving UP has to wake: from
        # then on this end sends full hellos and counts the ones it hears
        self.iface = iface
        self.state = NeighborState.UNKNOWN
        self.tier: Optional[int] = None
        # the peer's restart generation from its last full hello.  A
        # changed generation on a port believed UP means the peer's
        # control plane bounced without ever missing a hello — the
        # adjacency is torn down (reason ``peer-restart``) so protocol
        # state re-forms against the fresh process.
        self.peer_gen: Optional[int] = None
        # graceful restart (DESIGN §15): the neighbor's dead timer fired
        # but its data plane is presumed still forwarding — tree state
        # learned through this port is retained until a stale-hold
        # timer expires or the neighbor re-ups.
        self.stale_held = False
        self._consecutive = 0
        self._last_rx: Optional[int] = None
        self.times_died = 0
        self._suppress_flagged = False
        self._dead_timer = Timer(sim, timers.dead_us, self._on_dead,
                                 name=f"mtp-dead-{port}")

    # ------------------------------------------------------------------
    @property
    def up(self) -> bool:
        return self.state is NeighborState.UP

    def __repr__(self) -> str:
        return f"<PortNeighbor {self.port} {self.state.value} tier={self.tier}>"

    def _dead_interval_us(self) -> int:
        if self.monitor is None:
            return self.timers.dead_us
        return self.monitor.detection_interval_us(self.timers.dead_us)

    # ------------------------------------------------------------------
    def saw_frame(self, tier: Optional[int] = None,
                  gen: Optional[int] = None) -> None:
        """Any MR-MTP frame from the peer is a liveness proof."""
        now = self.sim.now
        monitor = self.monitor
        if monitor is not None:
            monitor.observe(now)
        if tier is not None:
            self.tier = tier
        if gen is not None:
            if self.peer_gen is None:
                self.peer_gen = gen
            elif gen != self.peer_gen:
                self.peer_gen = gen
                if self.state is NeighborState.UP:
                    self._declare_down("peer-restart")
        if self.state is NeighborState.UNKNOWN:
            # initial discovery needs the tier (a full hello) before the
            # port direction is known
            if self.tier is not None:
                self._try_accept()
        elif self.state is NeighborState.UP:
            # every healthy keepalive ends here: _dead_interval_us(), inline
            self._dead_timer.restart(
                self.timers.dead_us if monitor is None
                else monitor.detection_interval_us(self.timers.dead_us))
        else:
            # DEAD or PROBATION: Slow-to-Accept counting.  A gap larger
            # than the dead interval breaks the consecutive run.
            if (
                self._last_rx is not None
                and now - self._last_rx > self._dead_interval_us()
            ):
                self._consecutive = 0
            self._consecutive += 1
            self.state = NeighborState.PROBATION
            # probation decays back to DEAD when the hellos stop again
            self._dead_timer.restart(self._dead_interval_us())
            if self._consecutive >= self.timers.accept_hellos and self.tier is not None:
                self._try_accept()
        self._last_rx = now

    def _try_accept(self) -> None:
        """Slow-to-Accept is satisfied; damping may still withhold."""
        if self.monitor is not None and self.monitor.suppressed(self.sim.now):
            if not self._suppress_flagged and self.on_damp is not None:
                self._suppress_flagged = True
                self.on_damp(self, "suppress")
            return
        if self._suppress_flagged:
            self._suppress_flagged = False
            if self.on_damp is not None:
                self.on_damp(self, "reuse")
        self._accept()

    def _accept(self) -> None:
        self.state = NeighborState.UP
        self.stale_held = False
        self._consecutive = 0
        self._dead_timer.restart(self._dead_interval_us())
        self.on_up(self)

    def _on_dead(self) -> None:
        if self.state is NeighborState.UP:
            self._declare_down("dead-timer")
        elif self.state is NeighborState.PROBATION:
            self.state = NeighborState.DEAD

    def local_port_down(self) -> None:
        """The local interface was administratively downed."""
        if self.state is NeighborState.UP:
            self._declare_down("local-port-down")
        elif self.state is not NeighborState.UNKNOWN:
            # a flap mid-probation restarts the Slow-to-Accept count
            self.state = NeighborState.DEAD
            self._consecutive = 0
            self._dead_timer.stop()

    def _declare_down(self, reason: str) -> None:
        if self.iface is not None:
            self.iface.wake()
        self.state = NeighborState.DEAD
        self.times_died += 1
        self._consecutive = 0
        self._dead_timer.stop()
        if self.monitor is not None:
            self.monitor.interrupt()
            self.monitor.record_flap(self.sim.now)
        self.on_down(self, reason)

    def clear_damping(self) -> None:
        """The underlying link was repaired (impairment cleared): drop
        the accumulated penalty and measured loss so re-acceptance is
        governed by Slow-to-Accept alone, not a stale suppression."""
        if self.monitor is None:
            return
        was_suppressed = self._suppress_flagged
        self.monitor.clear_history()
        if was_suppressed:
            self._suppress_flagged = False
            if self.on_damp is not None:
                self.on_damp(self, "reuse")

    def stop(self) -> None:
        self._dead_timer.stop()


class QuietHello(QuietExchange):
    """One healthy link direction's hellos, held as arithmetic: ticks
    at ``tick``, ``tick + interval``, ..., each reaching ``rx``
    ``latency`` later only to re-arm ``neighbor``'s dead timer.  Any
    frame sent wakes it: every MR-MTP frame is a hello."""

    __slots__ = ("sender", "port", "timer", "tx", "rx", "neighbor",
                 "frame", "latency", "tick", "arrival")

    @classmethod
    def begin(cls, sender: "MtpNode", port: str, timer: PeriodicTimer,
              tx: Interface, frame: EthernetFrame) -> bool:
        """From the keepalive ``timer`` is about to send on, if the far
        end holds the sender UP and is not crashed, monitored, tapped or
        down, delivery is certain and the far dead timer not about to beat
        it (the sender's own checks: UP, untapped, unjittered)."""
        link = tx.link
        rx = link.other_end(tx)
        peer = getattr(rx.node, "mtp", None)
        if (peer is None or peer.crashed or peer.liveness is not None
                or not rx.admin_up or rx.taps):
            return False
        neighbor = peer.neighbors.get(rx.name)
        if neighbor is None or neighbor.state is not NeighborState.UP:
            return False
        latency = link.certain_latency_us(tx, frame)
        deadline = neighbor._dead_timer.expires_at
        if (latency is None or deadline is None
                or deadline <= sender.sim.now + latency):
            return False
        cls(sender, port, timer, tx, rx, neighbor, frame, latency)
        timer.stop()
        neighbor._dead_timer.stop()
        return True

    def __init__(self, sender: "MtpNode", port: str, timer: PeriodicTimer,
                 tx: Interface, rx: Interface, neighbor: PortNeighbor,
                 frame: EthernetFrame, latency: int) -> None:
        self.carry(sender.sim, (tx,), (rx,))
        self.sender, self.port, self.timer = sender, port, timer
        self.tx, self.rx, self.neighbor = tx, rx, neighbor
        self.frame, self.latency = frame, latency
        # the first hello, and the first delivery, not yet accounted for
        self.tick, self.arrival = self.sim.now, self.sim.now + latency
        self.sim.events_settled -= 1  # that tick is being dispatched

    def _passed(self, first: int, lead: int) -> int:
        """How many of the events due at ``first``, ``first + interval``,
        ..., each scheduled ``lead`` before it is due, have passed."""
        now = self.sim.now
        if first > now:
            return 0
        interval = self.timer.interval
        count = (now - first) // interval + 1
        last = first + (count - 1) * interval
        if not self.sim.has_passed(last, last - lead):
            count -= 1
        return count

    def settle(self) -> None:
        interval = self.timer.interval
        sent = self._passed(self.tick, interval)
        if sent:
            last = self.tick + (sent - 1) * interval
            self.sender.hellos_sent_unseen(self.port, sent, last)
            self.sent(self.tx, self.frame, sent, last)
            self.sim.events_settled += sent
            self.tick += sent * interval
        heard = self._passed(self.arrival, self.latency)
        if heard:
            self.heard(self.rx, self.frame, heard)
            self.neighbor._last_rx = self.arrival + (heard - 1) * interval
            self.arrival += heard * interval

    def put_back(self) -> None:
        neighbor = self.neighbor
        heard = neighbor._last_rx
        neighbor._dead_timer.start_at(heard + neighbor.timers.dead_us,
                                      born=heard)
        if self.arrival - self.latency < self.tick:  # sent, yet to arrive
            # deliveries scheduled while hello timers fire draw sequence
            # numbers in the order those fire, which one put back after
            # the fact can only have by borrowing its timer's
            self.sim.schedule_at(self.arrival, self.rx.deliver, self.frame,
                                 born=self.arrival - self.latency,
                                 seq=self.timer.rank)
        self.timer.start_at(self.tick, born=self.tick - self.timer.interval)
