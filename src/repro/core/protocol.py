"""The MR-MTP node: meshed-tree construction, failure updates, data plane.

One :class:`MtpNode` runs per router.  Control flow (paper section III):

* ToRs derive their root VID from the rack subnet and ADVERTISE it on
  upstream ports;
* an upper-tier device receiving an ADVERTISE answers with a JOIN; the
  lower device OFFERs child VIDs (parent VID + arrival-port number); the
  joiner stores them in its VID table and ACCEPTs (request-response /
  accept-acknowledge reliability, with retransmission);
* devices holding VIDs advertise them further up, meshing every ToR's
  tree across the spines.

Failure flow (sections IV.B and VII.B):

* a port facing *down* dying prunes everything acquired on it; the lost
  VIDs travel *up* as UPDATE_LOST (parents prune derived entries) and
  roots that became wholly unreachable travel *down* as UNREACHABLE
  (receivers mark the arrival port unusable for those roots);
* receivers only prune/mark — "recomputing of routes is not required";
* recovery is the mirror image: re-acquired roots propagate RESTORED.

Data plane (section III.D): ToRs encapsulate IP packets with
(src root, dst root) derived from the destination address; transit nodes
forward down via VID-table ports when they hold the destination root,
otherwise up via a hashed choice among alive, unmarked upstream ports.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterable, Optional

from repro.sim.rng import uniform
from repro.sim.timers import PeriodicTimer, Timer
from repro.sim.units import SECOND
from repro.stack.addresses import BROADCAST_MAC
from repro.stack.ethernet import ETHERTYPE_MTP, EthernetFrame
from repro.stack.ipv4 import Ipv4Packet
from repro.routing.ecmp import FlowKey, ecmp_hash
from repro.net.interface import Interface
from repro.net.node import Node
from repro.core.config import MtpNodeConfig, MtpTimers
from repro.core.messages import (
    MtpAccept,
    MtpAdvertise,
    MtpData,
    MtpFullHello,
    MtpJoin,
    MtpKeepalive,
    MtpMessage,
    MtpOffer,
    MtpRestored,
    MtpRestoredDefault,
    MtpUnreachable,
    MtpUnreachableDefault,
    MtpUpdateLost,
)
from repro.core.neighbor import NeighborState, PortNeighbor, QuietHello
from repro.core.tables import VidTable
from repro.core.vid import ThirdByteDerivation, Vid
from repro.liveness import NeighborMonitor, resolve_liveness

# Keepalives carry no fields; one immutable instance serves every port of
# every router (flyweight — the steady state sends one per hello interval
# per port, which dominated allocations at 32-PoD scale).
_KEEPALIVE = MtpKeepalive()

# retransmit periods a re-admitted child's re-JOINs are re-sent for: a
# child that lost those VIDs meanwhile never answers them
REJOIN_RETRIES = 10

# how long a graceful-restart helper holds a silent neighbor's tree state
# stale before pruning it, unless the deployment sets ``stale_hold_us``
STALE_HOLD_US = 1 * SECOND


@dataclass
class MtpCounters:
    data_sent: int = 0
    data_forwarded: int = 0
    data_delivered: int = 0
    data_dropped_no_path: int = 0
    updates_sent: int = 0
    updates_received: int = 0
    keepalives_sent: int = 0


class MtpNode:
    """MR-MTP protocol instance on one router."""

    def __init__(
        self,
        node: Node,
        config: MtpNodeConfig,
        timers: MtpTimers = MtpTimers(),
        derivation=None,
        stack=None,
        exclude_interfaces: Iterable[str] = (),
        salt: int = 0,
        rng=None,
        per_packet_spray: bool = False,
        liveness=None,
        graceful_restart: bool = False,
        stale_hold_us: Optional[int] = None,
    ) -> None:
        self.node = node
        self.sim = node.sim
        self.config = config
        self.timers = timers
        # Load-balancing ablation: flow hashing (the paper's design, and
        # ECMP's) vs per-packet round-robin spraying.  Spraying smooths
        # load but reorders flows — the trade-off the hash avoids.
        self.per_packet_spray = per_packet_spray
        self._spray_counter = 0
        # adaptive liveness layer (DESIGN §14): None = the paper's fixed
        # Quick-to-Detect timers, byte-identical baseline behavior
        self.liveness = resolve_liveness(liveness)
        if timers.jitter > 0.0 and rng is None:
            raise ValueError(f"{node.name}: timing jitter requires an rng")
        # a hello exchange can be held as arithmetic (QuietHello) only if
        # its instants are: no jittered period, no monitor measuring gaps
        self._hellos_regular = timers.jitter == 0.0 and self.liveness is None
        self.rng = rng
        self.derivation = derivation if derivation is not None else ThirdByteDerivation()
        self.stack = stack  # ToRs only: rack-side IP delivery
        self.salt = salt
        self.tier = config.tier
        self.table = VidTable(name=node.name, sim=node.sim)
        self._counters = MtpCounters()
        self.own_root: Optional[int] = None
        self.neighbors: dict[str, PortNeighbor] = {}
        self._excluded = set(exclude_interfaces)
        if config.rack_interface:
            self._excluded.add(config.rack_interface)
        # per-port transmit bookkeeping for keepalive suppression
        self._last_tx: dict[str, int] = {}
        # port -> the peer's restart generation when we last sent it a
        # full hello (our tier): a peer restarted since has forgotten it
        self._told_gen: dict[str, Optional[int]] = {}
        # flyweight keepalive frames: frames are immutable and identical
        # per port, so the steady-state churn reuses one object per port
        # instead of allocating frame+message every hello interval
        self._keepalive_frames: dict[str, EthernetFrame] = {}
        self._hello_timers: dict[str, PeriodicTimer] = {}
        # reliability: outstanding requests awaiting a response
        self._pending_join: dict[str, set[Vid]] = {}
        self._pending_offer: dict[str, set[Vid]] = {}
        self._unjoined_adverts: dict[str, set[Vid]] = {}
        # parents of the VIDs pruned from a down port: a child that never
        # saw the outage (loss one way, a flap shorter than its dead
        # timer) will not re-advertise, so re-admitting it re-sends these
        # JOINs
        self._rejoin: dict[str, set[Vid]] = {}
        # port -> (re-sent until, parents) for the re-JOINs in flight
        self._rejoining: dict[str, tuple[int, set[Vid]]] = {}
        # roots we have announced as unreachable to downstream neighbors;
        # a RESTORED goes out when such a root comes back
        self._announced_lost: set[int] = set()
        # default-path state (double-failure extension): None = our
        # default upstream path works; a frozenset = we advertised
        # UNREACHABLE_DEFAULT with those exception roots.  Messaging is
        # gated until the node first has a working default path so
        # bring-up produces no spurious updates.
        self._advertised_default: Optional[frozenset[int]] = None
        self._default_active = False
        # runs only while a request is outstanding, on the phase a timer
        # started by start() and never stopped would have
        self._retx_timer = PeriodicTimer(
            self.sim, timers.retransmit_us, self._retransmit, name="mtp-retx"
        )
        self._retx_epoch = 0
        # graceful restart (DESIGN §15).  Helper side: a neighbor whose
        # dead timer fired is presumed restarting — its tree state is
        # held stale (per-port timer) instead of pruned.  Restarting
        # side: the VID table survives the crash; entries are stale
        # until the rebuilt tree re-offers them, the remainder pruned
        # when the rebuild timer expires.
        self.graceful_restart = graceful_restart
        self.stale_hold_us = (stale_hold_us if stale_hold_us is not None
                              else STALE_HOLD_US)
        self.crashed = False
        # restart generation, carried in every full hello: peers that
        # never missed a hello still notice the control plane bounced
        # when the generation moves (wire byte, so modulo 256)
        self.restart_gen = 0
        # bumps on every neighbor-usability transition; forwarding-state
        # observers (the fluid workload, the invariant monitor) combine
        # it with the VID table's change_count, because graceful restart
        # changes what the data plane does without touching the table
        self.fib_gen = 0
        self._stale_hold_timers: dict[str, Timer] = {}
        self._gr_stale: set[tuple[str, Vid]] = set()
        self._gr_rebuild_timer: Optional[Timer] = None
        self._started = False
        node.register_handler(ETHERTYPE_MTP, self._on_frame)
        node.on_interface_down(self._on_iface_down)
        node.on_interface_up(self._on_iface_up)
        if self.liveness is not None:
            node.on_impairment_cleared(self._on_impairment_cleared)
        node.mtp = self
        if stack is not None:
            stack.intercept = self._intercept_ip

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Derive the ToR VID (tier 1) and begin hello transmission."""
        if self._started:
            return
        self._started = True
        if self.tier == 1:
            rack = self.node.interfaces[self.config.rack_interface]
            if rack.network is None:
                raise ValueError(
                    f"{self.node.name}: rack interface has no subnet; "
                    "cannot derive the ToR VID"
                )
            self.own_root = self.derivation.root_for_subnet(rack.network)
            self.node.log("mtp.vid", f"derived ToR VID {self.own_root}")
        for iface in self.node.interfaces.values():
            if iface.name in self._excluded or not iface.cabled:
                continue
            monitor = None
            if self.liveness is not None:
                # The arrival slot is hello_us, but keepalive suppression
                # lets a sender stay silent for one extra hello after any
                # frame — slack_periods=1 keeps those legal 2x-hello gaps
                # from reading as phantom loss.
                monitor = NeighborMonitor(
                    self.liveness, period_us=self.timers.hello_us,
                    base_detection_us=self.timers.dead_us,
                    now_us=self.sim.now, slack_periods=1,
                )
            self.neighbors[iface.name] = PortNeighbor(
                self.sim, iface.name, self.timers,
                on_up=self._on_neighbor_up, on_down=self._on_neighbor_down,
                monitor=monitor, on_damp=self._on_neighbor_damped,
                iface=iface,
            )
            timer = PeriodicTimer(
                self.sim, self.timers.hello_us,
                partial(self._hello_tick, iface.name),
                name=f"mtp-hello-{iface.name}",
                jitter=self.timers.jitter, rng=self.rng,
            )
            self._hello_timers[iface.name] = timer
            timer.start(immediate=True)
        self._retx_epoch = self.sim.now

    def crash(self) -> None:
        """Agent death: every control timer stops, neighbor liveness
        stops, pending exchanges are forgotten.  The VID table is left
        untouched — the data plane keeps forwarding headless on the
        frozen state until peers time the node out."""
        if self.crashed:
            return
        for port in self.neighbors:
            self.node.interfaces[port].wake()
        self.crashed = True
        for timer in self._hello_timers.values():
            timer.stop()
        self._retx_timer.stop()
        for nbr in self.neighbors.values():
            nbr.stop()
        for timer in self._stale_hold_timers.values():
            timer.stop()
        if self._gr_rebuild_timer is not None:
            self._gr_rebuild_timer.stop()
        self._gr_stale.clear()
        self._pending_join.clear()
        self._pending_offer.clear()
        self._unjoined_adverts.clear()
        self._rejoin.clear()
        self._rejoining.clear()

    def restart(self, cold: bool) -> None:
        """Bring the agent back.  ``cold`` wipes the VID table in place
        (power-cycle semantics: the tree is rebuilt from scratch); a
        graceful restart keeps it, marking every entry stale until the
        neighbor re-hellos rebuild and confirm it — the remainder is
        pruned when the rebuild stale-hold expires."""
        if not self.crashed:
            return
        self.crashed = False
        if cold:
            self.table.clear()
            self._announced_lost.clear()
            self._advertised_default = None
            self._default_active = False
        else:
            self._gr_stale = set(self.table.entries())
            if self._gr_stale:
                self.node.log(
                    "mtp.gr",
                    f"restart: {len(self._gr_stale)} entries held stale")
                if self._gr_rebuild_timer is None:
                    self._gr_rebuild_timer = Timer(
                        self.sim, self.stale_hold_us,
                        self._on_gr_rebuild_expired, name="mtp-gr-rebuild")
                self._gr_rebuild_timer.restart(self.stale_hold_us)
        # fresh discovery on every port: neighbors and hello timers are
        # rebuilt by start() (Slow-to-Accept runs on the remote side).
        # The restart generation moves so peers that never missed a
        # hello still notice the bounce from the next full hello.
        self.restart_gen = (self.restart_gen + 1) & 0xFF
        self.fib_gen += 1
        prev = {port: (nbr.tier, nbr.up or nbr.stale_held, nbr.peer_gen)
                for port, nbr in self.neighbors.items()}
        self._last_tx.clear()
        self._started = False
        self.start()
        if not cold:
            # warm restart remembers which ports were carrying traffic:
            # the fresh (UNKNOWN) neighbors inherit the old tier and are
            # held stale so the data plane never loses its candidate
            # ports while hellos re-form the adjacency
            for port, (tier, usable, peer_gen) in prev.items():
                nbr = self.neighbors.get(port)
                if nbr is None or tier is None:
                    continue
                nbr.tier = tier
                nbr.peer_gen = peer_gen
                if usable:
                    nbr.stale_held = True
                    self._arm_stale_hold(port)
            # re-join every surviving entry straight away instead of
            # waiting for the neighbor to re-advertise: the lower tier
            # never lost its state, so its OFFER confirms ours within a
            # round trip (the retransmit timer covers a lost JOIN)
            rejoin: dict[str, set[Vid]] = {}
            for port, vid in self._gr_stale:
                parent = vid.parent() if not vid.is_root else vid
                rejoin.setdefault(port, set()).add(parent)
            for port in sorted(rejoin):
                if not self._port_usable(port):
                    continue
                parents = rejoin[port]
                self._pending_join.setdefault(port, set()).update(parents)
                self._send(port, MtpJoin(vids=tuple(sorted(parents))))
                self._await_response()

    def _on_gr_rebuild_expired(self) -> None:
        """Rebuild stale-hold expired: whatever the re-formed tree never
        confirmed was really lost while we were down."""
        stale, self._gr_stale = sorted(self._gr_stale), set()
        by_port: dict[str, list[Vid]] = {}
        for port, vid in stale:
            if self.table.remove(port, vid):
                by_port.setdefault(port, []).append(vid)
        if not by_port:
            return
        total = sum(len(v) for v in by_port.values())
        self.node.log("mtp.gr",
                      f"stale-hold: pruned {total} unconfirmed entries")
        for port in sorted(by_port):
            self._propagate_loss(by_port[port], port)

    def _processing_delay(self) -> int:
        """Per-update processing latency, scaled by the timing noise."""
        base = self.timers.processing_us
        if self.timers.jitter == 0.0:
            return base
        return max(1, int(uniform(self.rng, 1.0, 1.0 + self.timers.jitter)
                          * base))

    # ------------------------------------------------------------------
    # direction helpers
    # ------------------------------------------------------------------
    def _direction(self, port: str) -> Optional[str]:
        nbr = self.neighbors.get(port)
        if nbr is None or nbr.tier is None:
            return None
        if nbr.tier < self.tier:
            return "down"
        if nbr.tier > self.tier:
            return "up"
        return None  # same-tier links do not occur in a folded-Clos

    def _alive_ports(self, direction: str) -> list[str]:
        """Usable, cabled ports facing ``direction`` — :meth:`_direction`,
        ``nbr.up`` and ``iface.cabled`` read inline: every packet going
        up asks."""
        tier, up, interfaces = self.tier, direction == "up", self.node.interfaces
        result = []
        for port, nbr in self.neighbors.items():
            nbr_tier = nbr.tier
            if (nbr_tier is None or nbr_tier == tier
                    or (nbr_tier > tier) is not up
                    or not (nbr.state is NeighborState.UP or nbr.stale_held)):
                continue
            iface = interfaces[port]
            if iface.admin_up and iface.link is not None:
                result.append(port)
        return sorted(result)

    def up_ports(self) -> list[str]:
        return self._alive_ports("up")

    def down_ports(self) -> list[str]:
        return self._alive_ports("down")

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------
    def _send(self, port: str, message: MtpMessage) -> None:
        iface = self.node.interfaces[port]
        frame = EthernetFrame(
            dst=BROADCAST_MAC, src=iface.mac,
            ethertype=ETHERTYPE_MTP, payload=message,
        )
        if iface.send(frame):
            self._last_tx[port] = self.sim.now

    def _hello_tick(self, port: str) -> None:
        """Hello-interval tick: transmit only if nothing else served as a
        keepalive in the last interval (paper section IV.B)."""
        iface = self.node.interfaces[port]
        if not iface.admin_up:
            return
        now = self.sim.now
        last = self._last_tx.get(port)
        if last is not None and now - last < self.timers.hello_us:
            return
        if self.neighbors[port].state is NeighborState.UP:
            frame = self._keepalive_frames.get(port)
            if frame is None:
                frame = EthernetFrame(
                    dst=BROADCAST_MAC, src=iface.mac,
                    ethertype=ETHERTYPE_MTP, payload=_KEEPALIVE,
                )
                self._keepalive_frames[port] = frame
            if (self._hellos_regular and not iface.taps
                    and QuietHello.begin(self, port, self._hello_timers[port],
                                         iface, frame)):
                return  # this hello is the first one nobody has to see
            self._counters.keepalives_sent += 1
            trace = self.node.trace
            if trace.live:  # Node.log, minus its frame: most of a tapped log
                trace.emit(self.node.name, "mtp.keepalive.tx", port,
                           bytes=frame.wire_size)
            if iface.send(frame):
                self._last_tx[port] = now
        else:
            # discovery / re-acceptance needs the tier information
            self._send_full_hello(port)

    def _send_full_hello(self, port: str) -> None:
        self._told_gen[port] = self.neighbors[port].peer_gen
        self._send(port, MtpFullHello(tier=self.tier, gen=self.restart_gen))

    def hellos_sent_unseen(self, port: str, count: int, last: int) -> None:
        """A :class:`QuietHello` settling: ``count`` keepalives went out
        on ``port``, the latest at ``last``."""
        self._counters.keepalives_sent += count
        self._last_tx[port] = last

    @property
    def counters(self) -> MtpCounters:
        for port in self.neighbors:
            self.node.interfaces[port].settle()
        return self._counters

    def _send_update(self, port: str, message: MtpMessage) -> None:
        self._counters.updates_sent += 1
        frame_bytes = 14 + message.wire_size
        self.node.log("mtp.update.tx", f"{type(message).__name__} on {port}",
                      bytes=frame_bytes)
        self._send(port, message)

    # ------------------------------------------------------------------
    # frame reception
    # ------------------------------------------------------------------
    def _on_frame(self, iface: Interface, frame: EthernetFrame) -> None:
        message = frame.payload
        port = iface.name
        nbr = self.neighbors.get(port)
        if (type(message) is MtpKeepalive and nbr is not None
                and nbr.state is NeighborState.UP and not self.crashed):
            # the steady state: a healthy neighbour says it is alive.
            # saw_frame() re-arms the dead timer and cannot change state.
            nbr.saw_frame()
            return
        if not isinstance(message, MtpMessage):
            return
        if nbr is None:
            return  # excluded or unconfigured port
        if self.crashed:
            # headless data plane: the ASIC still switches on the frozen
            # table, but nobody is home for control traffic
            if isinstance(message, MtpData):
                self._on_data(port, message)
            return
        was_up = nbr.up
        if isinstance(message, MtpFullHello):
            discovered = nbr.state is NeighborState.UNKNOWN
            nbr.saw_frame(message.tier, gen=message.gen)
            if nbr.up and (discovered or (
                    not was_up and self._told_gen.get(port) != nbr.peer_gen)):
                # accepted on a full hello the peer sent since our last
                # one reached it — on first sight, or after it restarted
                # (its fresh neighbor has no tier for us): keepalives do
                # not carry our tier, so without this it never learns it
                self._send_full_hello(port)
        else:
            nbr.saw_frame()
        if not was_up and not nbr.up:
            # Slow-to-Accept still counting: process nothing but liveness.
            return
        if isinstance(message, (MtpKeepalive, MtpFullHello)):
            return
        if isinstance(message, MtpData):
            self._on_data(port, message)
            return
        if isinstance(message, MtpAdvertise):
            self._on_advertise(port, message)
        elif isinstance(message, MtpJoin):
            self._on_join(port, message)
        elif isinstance(message, MtpOffer):
            self._on_offer(port, message)
        elif isinstance(message, MtpAccept):
            self._on_accept(port, message)
        elif isinstance(message, (MtpUpdateLost, MtpUnreachable, MtpRestored,
                                  MtpUnreachableDefault, MtpRestoredDefault)):
            self._counters.updates_received += 1
            self.sim.schedule_after(
                self._processing_delay(), self._process_update, port, message
            )

    # ------------------------------------------------------------------
    # meshed-tree construction
    # ------------------------------------------------------------------
    def _my_vids(self) -> list[Vid]:
        if self.tier == 1:
            return [Vid.root_of(self.own_root)] if self.own_root else []
        return self.table.all_vids()

    def _advertise_on(self, port: str) -> None:
        vids = self._my_vids()
        if not vids:
            return
        self._unjoined_adverts[port] = set(vids)
        self.node.log("mtp.ctrl.tx", f"advertise {len(vids)} vids on {port}")
        self._send(port, MtpAdvertise(vids=tuple(vids)))
        self._await_response()

    def _advertise_up(self) -> None:
        for port in self.up_ports():
            self._advertise_on(port)

    def _on_advertise(self, port: str, msg: MtpAdvertise) -> None:
        if self._direction(port) != "down":
            return
        have = self.table.vids_on(port)
        have_parents = {v.parent() for v in have if not v.is_root}
        if self._gr_stale:
            # graceful-restart rebuild: a surviving entry must still be
            # re-joined so the fresh OFFER confirms it before the
            # stale-hold would prune it as unconfirmed
            have_parents -= {v.parent() for p, v in self._gr_stale
                             if p == port and not v.is_root}
        wanted = tuple(v for v in msg.vids if v not in have_parents)
        if not wanted:
            return
        pending = self._pending_join.setdefault(port, set())
        pending.update(wanted)
        self._send(port, MtpJoin(vids=wanted))
        self._await_response()

    def _on_join(self, port: str, msg: MtpJoin) -> None:
        if self._direction(port) != "up":
            return
        port_number = self.node.interfaces[port].port_number
        mine = set(self._my_vids())
        children = tuple(
            parent.extend(port_number) for parent in msg.vids if parent in mine
        )
        if not children:
            return
        unjoined = self._unjoined_adverts.get(port)
        if unjoined:
            unjoined.difference_update(msg.vids)
        self._pending_offer.setdefault(port, set()).update(children)
        self._send(port, MtpOffer(vids=children))
        self._await_response()

    def _on_offer(self, port: str, msg: MtpOffer) -> None:
        if self._direction(port) != "down":
            return
        pending = self._pending_join.get(port, set())
        added: list[Vid] = []
        confirmed = 0
        for child in msg.vids:
            parent = child.parent() if not child.is_root else child
            pending.discard(parent)
            key = (port, child)
            if key in self._gr_stale:
                # graceful-restart rebuild: the re-formed tree confirms
                # an entry that survived the crash
                self._gr_stale.discard(key)
                confirmed += 1
            if self.table.add(port, child):
                added.append(child)
        self._send(port, MtpAccept(vids=msg.vids))
        if added:
            self.node.log("mtp.vid", f"acquired {[str(v) for v in added]} on {port}")
        if confirmed and not self._gr_stale and self._gr_rebuild_timer is not None:
            self._gr_rebuild_timer.stop()
            self.node.log("mtp.gr", "rebuild complete: every entry confirmed")
        if added or confirmed:
            self._after_acquisition(added)

    def _on_accept(self, port: str, msg: MtpAccept) -> None:
        pending = self._pending_offer.get(port)
        if pending:
            pending.difference_update(msg.vids)

    def _after_acquisition(self, added: list[Vid]) -> None:
        """New VIDs: advertise upward; roots we had declared lost and can
        now serve again flow down as RESTORED."""
        self._advertise_up()
        self._restore_regained({v.root for v in added})
        self._recompute_default_state()

    def _restore_regained(self, roots) -> None:
        """Of ``roots``, those we announced lost and can serve again flow
        down as RESTORED."""
        regained = tuple(r for r in sorted(roots)
                         if r in self._announced_lost and self._serves_root(r))
        if regained:
            self._announced_lost.difference_update(regained)
            for port in self.down_ports():
                self._send_update(port, MtpRestored(roots=regained))

    def _retransmit(self) -> None:
        """Request-response reliability: re-issue unanswered messages."""
        for port, (until, parents) in list(self._rejoining.items()):
            pending = self._pending_join.get(port, set())
            if self.sim.now >= until or pending.isdisjoint(parents):
                del self._rejoining[port]
                pending.difference_update(parents)
        for port, parents in self._pending_join.items():
            if parents and self._port_usable(port):
                self._send(port, MtpJoin(vids=tuple(sorted(parents))))
        for port, children in self._pending_offer.items():
            if children and self._port_usable(port):
                self._send(port, MtpOffer(vids=tuple(sorted(children))))
        for port, unjoined in self._unjoined_adverts.items():
            if unjoined and self._port_usable(port):
                self._send(port, MtpAdvertise(vids=tuple(sorted(unjoined))))
        if not any(vids for awaited in (self._pending_join,
                                        self._pending_offer,
                                        self._unjoined_adverts)
                   for vids in awaited.values()):
            self._retx_timer.stop()  # until _await_response()

    def _await_response(self) -> None:
        """A request went out: have the retransmit timer running, firing
        when one started by :meth:`start` and never stopped would — its
        firings since then found nothing to re-issue and changed nothing."""
        timer = self._retx_timer
        if timer.running:
            return
        period = timer.interval
        due = self._retx_epoch + period
        now = self.sim.now
        if due < now:
            due += (now - due) // period * period
        if self.sim.has_passed(due, due - period):
            due += period
        timer.start_at(due, born=due - period)

    def _port_usable(self, port: str) -> bool:
        nbr = self.neighbors.get(port)
        iface = self.node.interfaces[port]
        return (nbr is not None and (nbr.up or nbr.stale_held)
                and iface.admin_up)

    # ------------------------------------------------------------------
    # neighbor events
    # ------------------------------------------------------------------
    def _on_neighbor_up(self, nbr: PortNeighbor) -> None:
        self.node.log("mtp.neighbor", f"{nbr.port} up (tier {nbr.tier})")
        self.fib_gen += 1
        hold = self._stale_hold_timers.get(nbr.port)
        if hold is not None:
            hold.stop()
        if self._direction(nbr.port) == "up":
            self._advertise_on(nbr.port)
            # unmarked, it may serve roots we announced lost (its parent
            # replays what it still cannot reach)
            self._restore_regained(self._announced_lost)
        elif self._direction(nbr.port) == "down":
            parents = self._rejoin.pop(nbr.port, None)
            if parents:
                self._rejoining[nbr.port] = (
                    self.sim.now + REJOIN_RETRIES * self._retx_timer.interval,
                    parents)
                self._pending_join.setdefault(nbr.port, set()).update(parents)
                self._send(nbr.port, MtpJoin(vids=tuple(sorted(parents))))
                self._await_response()
            # a (re)appearing downstream neighbor missed our earlier
            # updates: replay the unreachability state it needs
            still_lost = tuple(sorted(
                r for r in self._announced_lost if self._lost_downward(r)))
            if still_lost:
                self._send_update(nbr.port, MtpUnreachable(roots=still_lost))
            if self._default_active and self._advertised_default is not None:
                self._send_update(nbr.port, MtpUnreachableDefault(
                    except_roots=tuple(sorted(self._advertised_default))))
        self._recompute_default_state()

    def _on_neighbor_down(self, nbr: PortNeighbor, reason: str) -> None:
        self.node.log("mtp.neighbor", f"{nbr.port} down ({reason})")
        self.fib_gen += 1
        if self.graceful_restart and reason in ("dead-timer", "peer-restart"):
            # GR helper: silence without a local port event is presumed
            # a restarting peer whose data plane still forwards (and a
            # moved restart generation is that restart made explicit) —
            # hold its tree state stale instead of pruning, and keep
            # the port in the forwarding candidate sets
            nbr.stale_held = True
            self.node.log(
                "mtp.gr",
                f"{nbr.port} held stale ({self.stale_hold_us // 1000} ms)")
            self._arm_stale_hold(nbr.port)
            return
        self._neighbor_lost(nbr.port)

    def _arm_stale_hold(self, port: str) -> None:
        timer = self._stale_hold_timers.get(port)
        if timer is None:
            timer = Timer(self.sim, self.stale_hold_us,
                          partial(self._on_stale_hold_expired, port),
                          name=f"mtp-gr-hold-{port}")
            self._stale_hold_timers[port] = timer
        timer.restart(self.stale_hold_us)

    def _on_stale_hold_expired(self, port: str) -> None:
        nbr = self.neighbors.get(port)
        if nbr is None or not nbr.stale_held or self.crashed:
            return
        nbr.stale_held = False
        self.fib_gen += 1
        self.node.log("mtp.gr", f"{port} stale-hold expired")
        self._neighbor_lost(port)

    def _neighbor_lost(self, port: str) -> None:
        """The neighbor is really gone: prune/mark and propagate."""
        self._pending_join.pop(port, None)
        self._rejoining.pop(port, None)
        self._pending_offer.pop(port, None)
        self._unjoined_adverts.pop(port, None)
        direction = self._direction(port)
        if direction == "down":
            pruned = self.table.prune_port(port)
            if pruned:
                self._rejoin.setdefault(port, set()).update(
                    v.parent() if not v.is_root else v for v in pruned)
                self.sim.schedule_after(
                    self._processing_delay(), self._propagate_loss,
                    pruned, port,
                )
        elif direction == "up":
            # our VIDs are intact; the hashed up-forwarding simply skips
            # the dead port.  Marks on the dead port are moot.
            self.table.clear_marks(port)
            self.table.clear_default_mark(port)
        self._recompute_default_state()

    def _on_neighbor_damped(self, nbr: PortNeighbor, kind: str) -> None:
        """Flap damping quarantined the neighbor past Slow-to-Accept
        (``suppress``) or released it (``reuse``)."""
        if kind == "suppress":
            eta_ms = nbr.monitor.reuse_eta_us(self.sim.now) // 1000
            self.node.log("mtp.damping",
                          f"{nbr.port} suppress (reuse in ~{eta_ms} ms)")
        else:
            self.node.log("mtp.damping", f"{nbr.port} reuse")

    def _on_iface_down(self, iface: Interface) -> None:
        if self.crashed:
            return
        nbr = self.neighbors.get(iface.name)
        if nbr is not None:
            if nbr.stale_held:
                # a stale-held port going administratively down is a
                # real loss, not a restarting peer
                nbr.stale_held = False
                self._neighbor_lost(iface.name)
            nbr.local_port_down()

    def _on_iface_up(self, iface: Interface) -> None:
        # hellos resume on the next tick; Slow-to-Accept gates re-use
        pass

    def _on_impairment_cleared(self, iface: Interface) -> None:
        """The harness repaired the physical link: damping state built
        up against the impairment no longer reflects the link."""
        nbr = self.neighbors.get(iface.name)
        if nbr is not None:
            nbr.clear_damping()

    # ------------------------------------------------------------------
    # failure updates
    # ------------------------------------------------------------------
    def _serves_root(self, root: int) -> bool:
        if root == self.own_root:
            return True
        if self.table.ports_for_root(root):
            return True
        for port in self.up_ports():
            if not self.table.is_marked(port, root):
                return True
        return False

    # ------------------------------------------------------------------
    # default-path bookkeeping (double-failure extension; DESIGN.md §5)
    # ------------------------------------------------------------------
    def _serviceable_roots(self) -> Optional[frozenset[int]]:
        """Roots this node can currently forward toward.  None means
        "everything": at least one alive up port with a working default
        path.  Tops (no up ports by design) are None while they hold
        entries — their losses are announced explicitly per root."""
        if not any(self.neighbors.get(p) and self._direction(p) == "up"
                   for p in self.neighbors):
            return None  # top tier: no default-up concept
        reachable: set[int] = set(self.table.roots())
        if self.own_root is not None:
            reachable.add(self.own_root)
        for port in self.up_ports():
            exceptions = self.table.default_exceptions(port)
            if exceptions is None:
                return None  # a fully working default uplink
            reachable.update(exceptions - self.table.marks_on(port))
        return frozenset(reachable)

    def _recompute_default_state(self) -> None:
        serviceable = self._serviceable_roots()
        if serviceable is None:
            if not self._default_active:
                self._default_active = True
            if self._advertised_default is not None:
                self._advertised_default = None
                for port in self.down_ports():
                    self._send_update(port, MtpRestoredDefault())
            return
        if not self._default_active:
            return  # never had a default path yet: stay silent (bring-up)
        if serviceable != self._advertised_default:
            self._advertised_default = serviceable
            for port in self.down_ports():
                self._send_update(port, MtpUnreachableDefault(
                    except_roots=tuple(sorted(serviceable))))

    def _lost_downward(self, root: int) -> bool:
        """True when this node no longer has any VID-table (downward)
        path to ``root``.  The up-ports are deliberately not consulted:
        in a folded-Clos, the plane above this node reached ``root``
        only *through* this node, so an up-detour cannot recover it —
        which is why the paper's S1_1 announces VID 11 unreachable to
        ToR12 immediately (section VII.B)."""
        return root != self.own_root and not self.table.ports_for_root(root)

    def _propagate_loss(self, pruned: list[Vid], origin_port: str) -> None:
        """After pruning VIDs (port death or UPDATE_LOST): tell parents
        to prune derived entries; tell children about lost roots."""
        if self.crashed:
            return
        for port in self.up_ports():
            self._send_update(port, MtpUpdateLost(vids=tuple(pruned)))
        lost_roots = tuple(
            sorted({v.root for v in pruned if self._lost_downward(v.root)})
        )
        if lost_roots:
            self._announced_lost.update(lost_roots)
            for port in self.down_ports():
                if port == origin_port:
                    continue
                self._send_update(port, MtpUnreachable(roots=lost_roots))
        self._recompute_default_state()

    def _process_update(self, port: str, message: MtpMessage) -> None:
        if self.crashed:
            return
        if isinstance(message, MtpUpdateLost):
            if self._direction(port) != "down":
                return
            doomed = self.table.prune_extensions(port, message.vids)
            if doomed:
                self.node.log("mtp.table",
                              f"pruned {[str(v) for v in doomed]} ({port})")
                self._propagate_loss(doomed, port)
        elif isinstance(message, MtpUnreachable):
            if self._direction(port) != "up":
                return
            added = self.table.mark_unreachable(port, message.roots)
            if not added:
                return
            self.node.log("mtp.table", f"marked {added} unreachable via {port}")
            now_lost = tuple(r for r in added if not self._serves_root(r))
            if now_lost:
                self._announced_lost.update(now_lost)
                for down in self.down_ports():
                    self._send_update(down, MtpUnreachable(roots=now_lost))
        elif isinstance(message, MtpRestored):
            if self._direction(port) != "up":
                return
            cleared = self.table.clear_marks(port, message.roots)
            if not cleared:
                return
            self.node.log("mtp.table", f"cleared marks {cleared} via {port}")
            self._restore_regained(cleared)
        elif isinstance(message, MtpUnreachableDefault):
            if self._direction(port) != "up":
                return
            if self.table.set_default_mark(port, message.except_roots):
                self.node.log(
                    "mtp.table",
                    f"default-unreachable via {port} "
                    f"(except {sorted(message.except_roots)})")
        elif isinstance(message, MtpRestoredDefault):
            if self._direction(port) != "up":
                return
            if self.table.clear_default_mark(port):
                self.node.log("mtp.table", f"default restored via {port}")
        self._recompute_default_state()

    def summary(self) -> str:
        """`show mtp`-style rendering of the node's protocol state."""
        role = {1: "ToR", 2: "aggregation", 3: "top spine"}.get(
            self.tier, f"tier-{self.tier}")
        lines = [f"MR-MTP router {self.node.name} ({role})"]
        if self.own_root is not None:
            lines.append(f"ToR VID: {self.own_root}")
        lines.append(
            f"neighbors: {sum(1 for n in self.neighbors.values() if n.up)} up"
            f" / {len(self.neighbors)}"
        )
        table = self.table.render()
        if table:
            lines.append("VID table:")
            lines += ["  " + line for line in table.splitlines()]
        c = self.counters
        lines.append(
            f"counters: data sent={c.data_sent} fwd={c.data_forwarded} "
            f"delivered={c.data_delivered} dropped={c.data_dropped_no_path}; "
            f"updates tx={c.updates_sent} rx={c.updates_received}; "
            f"keepalives={c.keepalives_sent}"
        )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def _intercept_ip(self, iface: Interface, packet: Ipv4Packet) -> bool:
        """ToR ingress hook: encapsulate rack traffic bound for another
        rack.  Returns True when MR-MTP consumed the packet."""
        if self.tier != 1 or self.own_root is None:
            return False
        dst_root = self.derivation.root_for_address(packet.dst)
        if dst_root == self.own_root:
            return False  # local rack: normal IP delivery
        message = MtpData(src_root=self.own_root, dst_root=dst_root,
                          packet=packet)
        self._counters.data_sent += 1
        self._forward_data(message, ingress_port=None)
        return True

    def _on_data(self, port: str, message: MtpData) -> None:
        if self.tier == 1 and message.dst_root == self.own_root:
            # destination ToR: de-encapsulate and deliver into the rack
            self._counters.data_delivered += 1
            if self.stack is not None:
                self.stack.forward_local(message.packet)
            return
        self._counters.data_forwarded += 1
        self._forward_data(message, ingress_port=port)

    def _flow_key(self, message: MtpData) -> FlowKey:
        packet = message.packet
        src_port = getattr(packet.payload, "src_port", 0)
        dst_port = getattr(packet.payload, "dst_port", 0)
        return FlowKey(src=packet.src.value, dst=packet.dst.value,
                       proto=packet.proto, src_port=src_port,
                       dst_port=dst_port)

    def decide_data_port(
        self, dst_root: int, flow: FlowKey, ingress_port: Optional[str] = None
    ) -> Optional[str]:
        """The forwarding decision of section III.D: down via a VID-table
        port when we hold the destination root, else — unless the packet
        came from above — up via a hashed choice among alive, unmarked
        upstream ports; None = no path."""
        candidates = self.candidate_data_ports(dst_root, ingress_port)
        if candidates:
            return candidates[self._balance(flow, len(candidates))]
        return None

    def candidate_data_ports(
        self, dst_root: int, ingress_port: Optional[str] = None
    ) -> list[str]:
        """The ordered candidate set :meth:`decide_data_port` hashes
        over right now — the flow-level evaluator's view of this node's
        forwarding state.  Same construction, minus the per-flow pick:
        index ``i`` here is what ``_balance(flow, len(...)) == i``
        selects."""
        down = [
            p for p in self.table.ports_for_root(dst_root)
            if self._port_usable(p) and p != ingress_port
        ]
        if down:
            return self._healthy_first(down)
        if ingress_port is not None and self._direction(ingress_port) == "up":
            return []  # descending: turning back up is a valley, and loops
        return self._healthy_first([
            p for p in self.up_ports()
            if not self.table.is_marked(p, dst_root) and p != ingress_port
        ])

    def _healthy_first(self, ports: list[str]) -> list[str]:
        """Gray-failure depreference: when some candidates are measured
        degraded and at least one is healthy, hash only over the healthy
        subset — the degraded port stays installed (no withdrawal, no
        churn) but stops receiving new flows.  With liveness off, or all
        candidates equally (un)healthy, the set is returned unchanged."""
        if self.liveness is None or len(ports) < 2:
            return ports
        healthy = [
            p for p in ports
            if not (self.neighbors[p].monitor is not None
                    and self.neighbors[p].monitor.degraded)
        ]
        if healthy and len(healthy) < len(ports):
            return healthy
        return ports

    def _balance(self, flow: FlowKey, n_choices: int) -> int:
        if self.per_packet_spray:
            self._spray_counter += 1
            return self._spray_counter % n_choices
        return ecmp_hash(flow, n_choices, salt=self.salt)

    def _forward_data(self, message: MtpData, ingress_port: Optional[str]) -> None:
        choice = self.decide_data_port(
            message.dst_root, self._flow_key(message), ingress_port
        )
        if choice is None:
            self._counters.data_dropped_no_path += 1
            self.node.log("mtp.drop", f"no path for root {message.dst_root}")
            return
        self._send(choice, message)
