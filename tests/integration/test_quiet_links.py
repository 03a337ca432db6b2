"""Quiet exchanges at their edges (DESIGN "Steady-state frame path"),
driven through the rules of the fabric machine (``test_fabric_machine``),
which holds a default and an all-tapped world to agreement after every
step: a fault or frames exactly on the microsecond a quiet link would
have had an event of its own, and recorded settle/wake mutations the
machine must catch."""

from __future__ import annotations

from heapq import heapify

import pytest

from repro.bfd.session import QuietBfd
from repro.bgp.speaker import QuietKeepalives
from repro.core.messages import MtpAdvertise
from repro.core.protocol import MtpNode
from repro.core.vid import Vid
from repro.net.interface import Interface
from repro.scenario.targets import fabric_failure_points
from repro.sim.timers import Timer
from repro.sim.units import MILLISECOND
from repro.stack.ipv4 import PROTO_UDP, Ipv4Packet
from repro.stack.payload import RawBytes
from repro.stack.udp import UdpDatagram
from tests.integration.test_fabric_machine import (
    HELLO_US, Fabric, _converged, _oracle_verdicts, machine_for, play_table)


def _machine(stack: str = "mtp"):
    machine = machine_for(stack)()
    machine.load("clos-2", 0)
    return machine


def _run_until(machine, instant: int) -> None:
    machine.run(instant - machine.fabrics[0].world.sim.now)


# the ids keep the names these tests have always run under
@pytest.mark.parametrize("op", ["iface_down", "agent_crash", "node_crash",
                                "impair", "capture"],
                         ids=["iface_down", "agent_crash", "node_down",
                              "impair", "capture"])
@pytest.mark.parametrize("offset_us", [0, 6, 50_000, 50_006, 100_006])
@pytest.mark.parametrize("scheduled", [True, False])
def test_a_fault_exactly_on_a_quiet_instant(op, offset_us, scheduled):
    """Hello ticks fall on multiples of 50 ms, their deliveries 6 us
    later, the dead timer 100 ms after those.  A fault scheduled well
    ahead for such an instant fires before the hello or delivery due
    then, in both worlds; one injected between runs finds the instant
    already played, in both worlds."""
    machine = _machine()
    assert machine.fabrics[0].world.sim.now % HELLO_US == 0
    if not scheduled:
        machine.run(offset_us)
    machine.inject([(op, (False, offset_us if scheduled else 0), 0, 1)])
    machine.run(450 * MILLISECOND)
    machine.agree()


@pytest.mark.parametrize("lead_us, keepalives, arrival_us", [
    # scheduled long before the tick: the frame goes first and serves as
    # the keepalive, the tick sends nothing
    (200_000, 0, 6),
    # scheduled within the hello interval: the tick fires first, the
    # frame queues behind its keepalive on the wire
    (10, 1, 7),
])
def test_another_frame_exactly_on_a_hello_instant(lead_us, keepalives,
                                                  arrival_us):
    machine = _machine()
    for fab, tapped in zip(machine.fabrics, (False, True)):
        sim = fab.world.sim
        tor = fab.deployment.mtp_nodes[fab.topo.all_tors()[0]]
        port = sorted(tor.neighbors)[0]
        peer = tor.node.interfaces[port].peer()
        heard_by = peer.node.mtp.neighbors[peer.name]
        sim.run_for(4 * HELLO_US - lead_us)
        instant = sim.now + lead_us
        assert instant % HELLO_US == 0
        # the sending event is scheduled now, lead_us before it is due; the
        # frame re-advertises a VID the peer already joined: a no-op there
        sim.call_soon(sim.schedule_at, instant, tor._send, port,
                      MtpAdvertise(vids=(Vid.root_of(tor.own_root),)))
        sim.run(until=instant - 1)
        assert tapped or peer.quiet_rx is not None
        sent, heard = tor.counters.keepalives_sent, peer.counters.rx_frames
        sim.run(until=instant + 20)
        others = len(tor.neighbors) - 1  # its other ports tick as ever
        assert tor.counters.keepalives_sent - sent == others + keepalives
        assert peer.counters.rx_frames - heard == 1 + keepalives
        assert heard_by._last_rx - instant == arrival_us
    machine.run(3 * HELLO_US)
    machine.agree()


def _bgp_machine():
    """The 2-PoD bgp-bfd machine and the instants of the first fabric
    port's BFD session's next two ticks, of its BGP keepalive, that
    keepalive's delivery and its ACK's, read off the tapped world's real
    timers (both worlds draw the same)."""
    machine = _machine("bgp-bfd")
    point = fabric_failure_points(machine.fabrics[1].topo)[0]
    port = machine.fabrics[1].topo.node(point.node).interfaces[point.interface]
    peer_ip = port.peer().address
    tick = port.node.bfd.sessions[peer_ip]._tx_timer._handle.time
    keepalive = port.node.bgp.peers[peer_ip].keepalive_timer._handle.time
    # the tick after: drawn when the first one fires, born at it
    copy = Fabric.load("bgp-bfd", "clos-2", 0, True).world
    copy.run(until=tick)
    next_tick = copy.nodes[port.node.name].bfd.sessions[peer_ip] \
        ._tx_timer._handle.time
    return machine, {"bfd-tick": tick, "bfd-next-tick": next_tick,
                     "keepalive": keepalive, "keepalive-arrival": keepalive + 6,
                     "ack-arrival": keepalive + 12}


@pytest.mark.parametrize("op", ["iface_down", "agent_crash", "impair",
                                "capture"])
@pytest.mark.parametrize("instant", ["bfd-tick", "keepalive", "ack-arrival"])
@pytest.mark.parametrize("scheduled", [True, False])
def test_a_fault_exactly_on_a_bfd_or_keepalive_instant(op, instant,
                                                       scheduled):
    """A fault scheduled from the converged instant fires before the
    tick or delivery due with it (born earlier); one injected between
    runs finds the instant played — in both worlds.  Target 0 is the
    first fabric port and its router, ``arg`` 2 a duplicating, jittered
    profile both ways."""
    machine, instants = _bgp_machine()
    at = instants[instant]
    if not scheduled:
        _run_until(machine, at)
    now = machine.fabrics[0].world.sim.now
    machine.inject([(op, (False, at - now), 0, 2)])
    _run_until(machine, instants["ack-arrival"] + 450 * MILLISECOND)
    machine.agree()


def _burst(port: Interface, count: int) -> None:
    """``count`` back-to-back 1 kB datagrams to the far end of ``port``,
    to a UDP port nobody listens on."""
    for _ in range(count):
        port.node.ip.send_packet(Ipv4Packet(
            src=port.address, dst=port.peer().address, proto=PROTO_UDP,
            payload=UdpDatagram(9, 9, RawBytes(1000))))


def _frames_on_a_quiet_instant(where: str, count: int) -> None:
    """Two microseconds before a quiet transmission is due, ``count``
    frames start on its line: two leave it free in time, three are still
    on the wire — the BFD session or the keepalive exchange then has to
    wake and queue behind them, in both worlds alike, as they stand just
    after (before the next period re-arms what a late frame moved)."""
    machine, instants = _bgp_machine()
    due, far = {"bfd": (instants["bfd-next-tick"], False),
                "keepalive": (instants["keepalive"], False),
                "ack": (instants["keepalive-arrival"], True)}[where]
    for fab in machine.fabrics:
        point = fabric_failure_points(fab.topo)[0]
        port = fab.topo.node(point.node).interfaces[point.interface]
        fab.world.sim.schedule_at(due - 2, _burst,
                                  port.peer() if far else port, count)
    _run_until(machine, due + 20)
    machine.agree()


@pytest.mark.parametrize("where", ["bfd", "keepalive", "ack"])
@pytest.mark.parametrize("count", [2, 3])
def test_frames_exactly_on_a_bfd_or_keepalive_instant(where, count):
    _frames_on_a_quiet_instant(where, count)


# ----------------------------------------------------------------------
# the machine has teeth: ways to get settle/wake wrong, each caught
# by a play of its program table — for MR-MTP, forget ``_last_tx``,
# start a dead timer from the wake instant, tap without waking; for BFD
# and BGP, draw one session's periods ahead of its node's other
# sessions, put a hold timer back from the wake instant, let a frame
# still on the wire when a quiet BFD session ticks leave it asleep
# ----------------------------------------------------------------------
def _forget_last_tx(self, port, count, last):
    self._counters.keepalives_sent += count


def _dead_timer_from_the_wake_instant(self, deadline, born):
    self.start()


def _tap_without_waking(self, tap):
    self.taps += (tap,)


@pytest.fixture
def fresh_worlds():
    """Worlds converged under a mutant must not outlive it."""
    _converged.cache_clear()
    _oracle_verdicts.cache_clear()
    yield
    _converged.cache_clear()
    _oracle_verdicts.cache_clear()


@pytest.mark.parametrize("owner, name, mutant", [
    (MtpNode, "hellos_sent_unseen", _forget_last_tx),
    (Timer, "start_at", _dead_timer_from_the_wake_instant),
    (Interface, "add_tap", _tap_without_waking),
])
def test_the_property_catches_a_wrong_settle_or_wake(
        monkeypatch, fresh_worlds, owner, name, mutant):
    monkeypatch.setattr(owner, name, mutant)
    with pytest.raises(AssertionError):
        play_table("mtp")


def _settle_without_siblings(self):
    session, sim = self.session, self.sim
    heap = session.manager._quiet
    while True:
        due, _born, rank, _session = entry = next(
            entry for entry in heap if entry[3] is session)
        if not sim.has_passed(*entry[:3]):
            break
        heap.remove(entry)
        self.tick(due)
        heap.append((due + session._tx_timer._next_period(
            session.manager._rng), due, rank, session))
    heapify(heap)
    if (self.arrival is not None
            and sim.has_passed(self.arrival, self.arrival - self.latency)):
        self._hear()


def _hold_from_the_wake_instant(self):
    _put_back_keepalives(self)
    for end in self.ends:
        end.hold_timer.start()


def _a_frame_into_the_tick_unnoticed(self, iface):
    return _next_tx(self, iface) + 1


_put_back_keepalives = QuietKeepalives.put_back
_next_tx = QuietBfd.next_tx


@pytest.mark.parametrize("owner, name, mutant, caught_by", [
    (QuietBfd, "settle", _settle_without_siblings, "property"),
    (QuietKeepalives, "put_back", _hold_from_the_wake_instant, "property"),
    (QuietBfd, "next_tx", _a_frame_into_the_tick_unnoticed, "frames"),
])
def test_bfd_and_bgp_settle_or_wake_mutants_are_caught(
        monkeypatch, fresh_worlds, owner, name, mutant, caught_by):
    if caught_by == "frames":
        _bgp_machine()  # converged right: the mutant is in the steady state
    monkeypatch.setattr(owner, name, mutant)
    with pytest.raises(AssertionError):
        if caught_by == "property":
            play_table("bgp-bfd")
        else:
            _frames_on_a_quiet_instant("bfd", 3)
