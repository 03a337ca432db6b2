"""Quiet exchanges change nothing but the MR-MTP keepalive trace (DESIGN
"Steady-state frame path").

A healthy link direction's MR-MTP hellos, an Up BFD session's packets and
what follows an idle BGP session's keepalive tick are accounted for
arithmetically and put back into the event queue the instant something
touches them.  The reference is the same code on a world whose every
interface carries a no-op tap — a tapped direction is never quiet, which
is the rule Fig. 9/10 captures rely on.  One differential property plays
the same fault program on both, for every family, and demands that they
agree on every ``ScenarioMetrics`` field, every counter, every protocol
state, every table, every timer deadline, the count of events dispatched
or settled, and the trace itself, MR-MTP keepalive records aside; the tie
tests put a fault and a frame exactly on a quiet instant; recorded
mutations of the settle/wake code show the property has teeth.
"""

from __future__ import annotations

import dataclasses
import pickle
from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify

import pytest
from hypothesis import (HealthCheck, Phase, given, seed, settings,
                        strategies as st)

from repro.bfd.session import QuietBfd
from repro.bgp.speaker import QuietKeepalives
from repro.core.messages import MtpAdvertise
from repro.core.protocol import MtpNode
from repro.core.vid import Vid
from repro.harness.convergence import converge_from_cold
from repro.harness.failures import FailureInjector
from repro.net.capture import Capture
from repro.net.impairment import ImpairmentProfile
from repro.net.interface import Interface
from repro.net.world import World
from repro.scenario.compiler import compile_scenario
from repro.scenario.model import Scenario, ScenarioEvent
from repro.sim.timers import Timer
from repro.sim.units import MILLISECOND
from repro.stack.ipv4 import PROTO_UDP, Ipv4Packet
from repro.stack.payload import RawBytes
from repro.stack.udp import UdpDatagram
from repro.bgp.config import BgpTimers
from repro.stacks import StackTimers, get_stack, resolve_spec
from repro.topology import ClosParams, build_topology
from repro.traffic.generator import ReceiverAnalyzer, TrafficSender

STACKS = ("mtp", "mtp-spray", "mtp-gr", "bgp-bfd", "bgp", "bgp-gr")
# 600 examples in all; a BGP one costs about twice an MR-MTP one
EXAMPLES = {"mtp": 140, "mtp-spray": 140, "mtp-gr": 140, "bgp-bfd": 60,
            "bgp": 60, "bgp-gr": 60}
FABRICS = {"clos-2": ClosParams(num_pods=2), "clos-4": ClosParams(num_pods=4),
           "vl2": "vl2"}
SEEDS = (0, 1, 2)
HELLO_US = 50 * MILLISECOND
# BGP keepalive and hold 5x faster than the paper's 1 s / 3 s: five times
# the keepalives per simulated second, and a scenario waits out a 600 ms
# hold bound instead of 3 s
BGP_TIMERS = StackTimers(bgp=BgpTimers(keepalive_us=200 * MILLISECOND,
                                       hold_us=600 * MILLISECOND))
PROBE_PORT = 7700  # phase-1 burst; the compiled scenario's own uses 7777

# what the FailureInjector can do to a fabric, plus attaching a capture
# (the one wake that is not a fault)
OPS = ("iface_down", "iface_up", "link_cut", "link_restore", "node_down",
       "node_up", "agent_crash", "agent_restart", "impair", "clear", "flap",
       "capture")
PROFILES = (ImpairmentProfile(loss=0.3), ImpairmentProfile(loss=1.0),
            ImpairmentProfile(duplicate=0.5, jitter_us=40),
            ImpairmentProfile(corrupt=0.5, jitter_us=70_000))


@dataclass(frozen=True)
class Program:
    """Phase 1: timed injector calls and one burst, to the microsecond,
    cut by a snapshot/restore; phase 2: a compiled scenario (one of the
    paper's cases plus traffic) measured on the restored world."""

    stack: str
    fabric: str
    seed: int
    faults: tuple[tuple[str, int, int, int], ...]  # op, at_us, target, arg
    burst: tuple[int, int, int, int]   # at_us, gap_us, count, endpoints
    snapshot_at_us: int
    case: int


def no_op_tap(iface, frame, direction) -> None:
    """The reference world's tap (top level: worlds are pickled)."""


@lru_cache(maxsize=None)
def _converged(stack: str, fabric: str, world_seed: int, tapped: bool) -> bytes:
    spec = resolve_spec(stack, BGP_TIMERS if stack.startswith("bgp") else None)
    world = World(seed=world_seed)
    topo = build_topology(FABRICS[fabric], world=world)
    if tapped:
        for iface in world.all_interfaces():
            iface.add_tap(no_op_tap)
    deployment = get_stack(spec.name).build(topo, spec)
    deployment.start()
    converge_from_cold(world, deployment, deployment.ready)
    return pickle.dumps((world, topo, deployment))


def _fabric_ports(topo) -> list[Interface]:
    return [iface for name in topo.routers()
            for iface in topo.node(name).interfaces.values()
            if iface.peer() is not None and iface.peer().node.tier > 0]


def _inject(program: Program, world, topo, deployment, captures) -> None:
    injector = FailureInjector(world, deployment)
    ports = _fabric_ports(topo)
    routers = topo.routers()
    base = world.sim.now
    for op, at_us, target, arg in program.faults:
        at = base + at_us
        port = ports[target % len(ports)]
        node, name = port.node.name, port.name
        peer = port.peer().node.name
        router = routers[target % len(routers)]
        if op == "iface_down":
            injector.fail_interface(node, name, at=at)
        elif op == "iface_up":
            injector.restore_interface(node, name, at=at)
        elif op == "link_cut":
            injector.cut_link(node, peer, at=at)
        elif op == "link_restore":
            injector.restore_link(node, peer, at=at)
        elif op == "node_down":
            injector.fail_node(router, at=at)
        elif op == "node_up":
            injector.restore_node(router, at=at)
        elif op == "agent_crash":
            injector.crash_agent(router, at=at)
        elif op == "agent_restart":
            injector.restart_agent(router, at=at)
        elif op == "impair":
            injector.impair_link(node, name, PROFILES[arg % len(PROFILES)],
                                 ("tx", "rx", "both")[arg % 3], at=at)
        elif op == "clear":
            injector.clear_impairment(node, name, at=at)
        elif op == "flap":
            injector.flap_interface(node, name, period_us=1 + arg,
                                    count=2, start_at=at)
        else:  # capture: tshark started on one router mid-run
            capture = Capture()
            captures.append(capture)
            world.sim.schedule_at(at, capture.attach_node, topo.node(router))


def _start_burst(program: Program, world, topo, deployment):
    at_us, gap_us, count, endpoints = program.burst
    servers = sorted(deployment.servers)
    first, hop = endpoints % len(servers), endpoints // len(servers)
    src = servers[first]
    dst = servers[(first + 1 + hop % (len(servers) - 1)) % len(servers)]
    analyzer = ReceiverAnalyzer(deployment.servers[dst].udp, port=PROBE_PORT)
    sender = TrafficSender(udp=deployment.servers[src].udp,
                           dst=topo.server_address(dst), dst_port=PROBE_PORT,
                           src_port=41000, gap_us=gap_us)
    sender.start(count=count, at=world.sim.now + at_us)
    return sender, analyzer


def _play(program: Program, tapped: bool) -> dict:
    world, topo, deployment = pickle.loads(
        _converged(program.stack, program.fabric, program.seed, tapped))
    captures: list[Capture] = []
    _inject(program, world, topo, deployment, captures)
    burst = _start_burst(program, world, topo, deployment)
    world.run_for(program.snapshot_at_us)
    world, topo, deployment, captures, burst = pickle.loads(pickle.dumps(
        (world, topo, deployment, captures, burst)))
    scenario = Scenario(
        name="probe", settle="keepalive-phase", quiet_ms=150,
        max_wait_ms=1000, events=(
            ScenarioEvent(op="traffic_burst", at_ms=0, src="server:tor[0]",
                          dst="server:tor[1]", rate_pps=500, count=80),
            ScenarioEvent(op="iface_down", at_ms=20,
                          target=f"case:TC{program.case}"),
            ScenarioEvent(op="iface_up", at_ms=200,
                          target=f"case:TC{program.case}")))
    metrics = compile_scenario(scenario, world, topo, deployment).execute(
        program.stack, program.seed)
    return _observe(world, deployment, captures, burst, metrics)


def _ip_stacks(deployment) -> dict:
    stacks = dict(getattr(deployment, "stacks", None)
                  or deployment.tor_stacks)
    stacks.update((name, host.stack)
                  for name, host in deployment.servers.items())
    return stacks


def _observe(world, deployment, captures=(), burst=None, metrics=None) -> dict:
    """Everything the two worlds must agree on, for either family.
    Counters are read through their public, settling accessors first;
    then every interface of the world is tapped — which wakes whatever is
    still quiet — so that the timers compared are real in both."""
    mtp = getattr(deployment, "mtp_nodes", {})
    speakers = getattr(deployment, "speakers", {})
    managers = {name: s.bfd for name, s in speakers.items()
                if s.bfd is not None}
    conns = {(name, str(ip)): peer.conn
             for name, s in speakers.items()
             for ip, peer in s.peers.items() if peer.conn is not None}
    seen = {
        "now": world.sim.now,
        "metrics": metrics and dataclasses.asdict(metrics),
        "burst": burst and dataclasses.asdict(burst[1].report(burst[0])),
        "trace": [(r.time, r.node, r.category, r.message, sorted(r.data.items()))
                  for r in world.trace.records
                  if r.category != "mtp.keepalive.tx"],
        # frames that reach one node in the same microsecond on different
        # ports are listed in port order: a frame put back in flight and
        # a played one may be delivered in either order (DESIGN)
        "captures": [sorted((r.time, r.node, r.interface, r.direction.value,
                             type(r.frame.payload).__name__)
                            for r in c.records)
                     for c in captures],
        "links": [(link.frames_carried, link.bytes_carried,
                   link.frames_dropped_queue, link.frames_lost_impaired,
                   link.frames_corrupted, link.frames_duplicated,
                   link.queue_backlog_bytes(link.end_a),
                   link.queue_backlog_bytes(link.end_b))
                  for link in world.links],
        "ifaces": {iface.full_name: (iface.admin_up,
                                     dataclasses.astuple(iface.counters))
                   for iface in world.all_interfaces()},
        "ip": {name: dataclasses.astuple(stack.counters)
               for name, stack in _ip_stacks(deployment).items()},
        "tables": {name: stack.table.render()
                   for name, stack in _ip_stacks(deployment).items()},
        "mtp": {name: (dataclasses.astuple(node.counters), node.crashed,
                       node.table.render(), node.fib_gen)
                for name, node in mtp.items()},
        "bgp": {name: (s.crashed, s.summary(), sorted(
                    (str(ip), p.state.value, p.sessions_established)
                    for ip, p in s.peers.items()))
                for name, s in speakers.items()},
        "bfd": {(name, str(ip)): (b.state.value, b.your_discriminator,
                                  b.packets_sent, b.packets_received)
                for name, m in managers.items()
                for ip, b in m.sessions.items()},
        "jitter": {name: m.rng.bit_generator.state
                   for name, m in managers.items()},
        "tcp": {key: (c.state.value, c.snd_nxt, c.snd_una, c.rcv_nxt,
                      c.segments_sent, c.segments_retransmitted,
                      c.bytes_delivered)
                for key, c in conns.items()},
    }
    for iface in world.all_interfaces():
        iface.add_tap(no_op_tap)
    sim = world.sim
    seen["events"] = sim.events_processed + sim.events_settled
    seen["link_free_at"] = [sorted((i.full_name, t)
                                   for i, t in link._next_free.items())
                            for link in world.links]
    seen["neighbors"] = {
        (name, port): (nbr.state.value, nbr.tier, nbr.peer_gen,
                       nbr.stale_held, nbr.times_died, nbr._consecutive,
                       nbr._last_rx, nbr._dead_timer.expires_at)
        for name, node in mtp.items()
        for port, nbr in node.neighbors.items()}
    seen["hello"] = {
        (name, port): (node._last_tx.get(port), _due(timer))
        for name, node in mtp.items()
        for port, timer in node._hello_timers.items()}
    seen["retransmit"] = {name: _due(node._retx_timer)
                          for name, node in mtp.items()}
    seen["bfd_timers"] = {
        (name, str(ip)): (_due(b._tx_timer), _due(b._detect_timer))
        for name, m in managers.items() for ip, b in m.sessions.items()}
    seen["bgp_timers"] = {
        (name, str(ip)): (_due(p.hold_timer), _due(p.keepalive_timer),
                          _due(p.retry_timer))
        for name, s in speakers.items() for ip, p in s.peers.items()}
    seen["tcp_timers"] = {key: (_due(c._rto_timer), c._rto, len(c._unacked))
                          for key, c in conns.items()}
    return seen


def _due(timer):
    return timer._handle.time if timer.running else None


def _agree(program: Program) -> None:
    quiet, reference = _play(program, False), _play(program, True)
    for key in reference:
        assert quiet[key] == reference[key], key


def _programs(stack: str):
    # any microsecond — or one a quiet link has an event of its own on:
    # worlds converge on a hello instant, hellos arrive 6 us later, and a
    # packet a server sends 6 us before a hello is forwarded right on it.
    # BGP programs stay on two small fabrics and two seeds (4 PoDs: the
    # quiet-second guard, and soaks): a BGP scenario waits out the hold
    bgp = stack.startswith("bgp")
    instant = st.one_of(
        st.integers(0, 400_000),
        st.builds(lambda k, d: k * HELLO_US + d, st.integers(0, 7),
                  st.sampled_from((0, 1, 6, 7, HELLO_US - 6))))
    fault = st.tuples(st.sampled_from(OPS), instant,
                      st.integers(0, 10_000), st.integers(0, 120_000))
    return st.builds(
        Program, stack=st.just(stack),
        fabric=st.sampled_from(("clos-2", "vl2") if bgp else sorted(FABRICS)),
        seed=st.sampled_from(SEEDS[:2] if bgp else SEEDS),
        faults=st.lists(fault, max_size=6).map(tuple),
        burst=st.tuples(instant, st.sampled_from((1, 37, 1_000, 12_500)),
                        st.integers(1, 60), st.integers(0, 1_000)),
        snapshot_at_us=instant, case=st.integers(1, 4))


@pytest.mark.parametrize("stack", STACKS)
def test_quiet_and_all_tapped_worlds_agree(stack):
    @settings(max_examples=EXAMPLES[stack], deadline=None, database=None,
              suppress_health_check=list(HealthCheck))
    @given(program=_programs(stack))
    def agree(program):
        _agree(program)

    agree()


# ----------------------------------------------------------------------
# ties: something lands on the very microsecond a quiet link would have
# had an event of its own
# ----------------------------------------------------------------------
@pytest.mark.parametrize("op", ["iface_down", "agent_crash", "node_down",
                                "impair", "capture"])
@pytest.mark.parametrize("offset_us", [0, 6, 50_000, 50_006, 100_006])
@pytest.mark.parametrize("scheduled", [True, False])
def test_a_fault_exactly_on_a_quiet_instant(op, offset_us, scheduled):
    """Hello ticks fall on multiples of 50 ms, their deliveries 6 us
    later, the dead timer 100 ms after those.  A fault scheduled well
    ahead for such an instant fires before the hello or delivery due
    then, in both worlds; one injected between runs finds the instant
    already played, in both worlds."""
    seen = []
    for tapped in (False, True):
        world, topo, deployment = pickle.loads(
            _converged("mtp", "clos-2", 0, tapped))
        assert world.sim.now % HELLO_US == 0
        captures: list[Capture] = []
        program = Program("mtp", "clos-2", 0,
                          ((op, offset_us if scheduled else 0, 0, 1),),
                          (0, 1, 1, 0), 0, 1)
        if not scheduled:
            world.run_for(offset_us)
        _inject(program, world, topo, deployment, captures)
        world.run_for(450 * MILLISECOND)
        seen.append(_observe(world, deployment, captures))
    assert seen[0] == seen[1]


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
    seen = []
    for tapped in (False, True):
        world, topo, deployment = pickle.loads(
            _converged("mtp", "clos-2", 0, tapped))
        sim = world.sim
        tor = deployment.mtp_nodes[topo.all_tors()[0]]
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
        sim.run_for(3 * HELLO_US)
        seen.append(_observe(world, deployment))
    assert seen[0] == seen[1]


# ----------------------------------------------------------------------
# BFD and BGP ties: a fault, or frames, on the microsecond a quiet BFD
# session ticks or a quiet keepalive, its delivery or its ACK is due
# ----------------------------------------------------------------------
def _bgp_worlds():
    """The quiet and the tapped converged 2-PoD bgp-bfd world, the first
    fabric port, and the instants of its BFD session's next two ticks and
    of its BGP keepalive, that keepalive's delivery and its ACK's, read
    off the tapped world's real timers (both worlds draw the same)."""
    worlds = [pickle.loads(_converged("bgp-bfd", "clos-2", 0, tapped))
              for tapped in (False, True)]
    world, topo, _deployment = worlds[1]
    port = _fabric_ports(topo)[0]
    peer_ip = port.peer().address
    bfd = port.node.bfd.sessions[peer_ip]
    tick = bfd._tx_timer._handle.time
    keepalive = port.node.bgp.peers[peer_ip].keepalive_timer._handle.time
    # the tick after: drawn when the first one fires, born at it
    copy = pickle.loads(_converged("bgp-bfd", "clos-2", 0, True))[0]
    copy.run(until=tick)
    next_tick = copy.nodes[port.node.name].bfd.sessions[peer_ip] \
        ._tx_timer._handle.time
    instants = {"bfd-tick": tick, "bfd-next-tick": next_tick,
                "keepalive": keepalive,
                "keepalive-arrival": keepalive + 6,
                "ack-arrival": keepalive + 12}
    return worlds, (port.node.name, port.name), instants


@pytest.mark.parametrize("op", ["iface_down", "agent_crash", "impair",
                                "capture"])
@pytest.mark.parametrize("instant", ["bfd-tick", "keepalive", "ack-arrival"])
@pytest.mark.parametrize("scheduled", [True, False])
def test_a_fault_exactly_on_a_bfd_or_keepalive_instant(op, instant,
                                                       scheduled):
    """A fault scheduled from the converged instant fires before the
    tick or delivery due with it (born earlier); one injected between
    runs finds the instant played — in both worlds."""
    worlds, (node, name), instants = _bgp_worlds()
    at = instants[instant]
    seen = []
    for world, topo, deployment in worlds:
        if not scheduled:
            world.run(until=at)
        injector = FailureInjector(world, deployment)
        captures: list[Capture] = []
        if op == "iface_down":
            injector.fail_interface(node, name, at=at)
        elif op == "agent_crash":
            injector.crash_agent(node, at=at)
        elif op == "impair":
            injector.impair_link(node, name, PROFILES[2], "both", at=at)
        else:
            captures.append(Capture())
            world.sim.schedule_at(at, captures[0].attach_node,
                                  topo.node(node))
        world.run(until=instants["ack-arrival"] + 450 * MILLISECOND)
        seen.append(_observe(world, deployment, captures))
    assert seen[0] == seen[1]


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
    after."""
    worlds, (node, name), instants = _bgp_worlds()
    due, far = {"bfd": (instants["bfd-next-tick"], False),
                "keepalive": (instants["keepalive"], False),
                "ack": (instants["keepalive-arrival"], True)}[where]
    seen = []
    for world, _topo, deployment in worlds:
        port = world.nodes[node].interfaces[name]
        world.sim.schedule_at(due - 2, _burst, port.peer() if far else port,
                              count)
        # before the next period re-arms what a late frame moved
        world.run(until=due + 20)
        seen.append(_observe(world, deployment))
    assert seen[0] == seen[1]


@pytest.mark.parametrize("where", ["bfd", "keepalive", "ack"])
@pytest.mark.parametrize("count", [2, 3])
def test_frames_exactly_on_a_bfd_or_keepalive_instant(where, count):
    _frames_on_a_quiet_instant(where, count)


# ----------------------------------------------------------------------
# the property has teeth: three ways to get settle/wake wrong, each
# caught within a fixed, seeded run of it
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
    yield
    _converged.cache_clear()


@pytest.mark.parametrize("owner, name, mutant", [
    (MtpNode, "hellos_sent_unseen", _forget_last_tx),
    (Timer, "start_at", _dead_timer_from_the_wake_instant),
    (Interface, "add_tap", _tap_without_waking),
])
def test_the_property_catches_a_wrong_settle_or_wake(
        monkeypatch, fresh_worlds, owner, name, mutant):
    monkeypatch.setattr(owner, name, mutant)

    @seed(24)
    @settings(max_examples=25, deadline=None, database=None,
              phases=[Phase.generate],  # the first disagreement will do
              suppress_health_check=list(HealthCheck))
    @given(program=_programs("mtp"))
    def agree(program):
        _agree(program)

    with pytest.raises(AssertionError):
        agree()


# ----------------------------------------------------------------------
# ... and for BFD and BGP: draw one session's periods ahead of its node's
# other sessions, put a hold timer back from the wake instant, let a
# frame still on the wire when a quiet BFD session ticks leave it asleep
# ----------------------------------------------------------------------
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
        _bgp_worlds()  # converged right: the mutant is in the steady state
    monkeypatch.setattr(owner, name, mutant)

    @seed(26)
    @settings(max_examples=10, deadline=None, database=None,
              phases=[Phase.generate],
              suppress_health_check=list(HealthCheck))
    @given(program=_programs("bgp-bfd"))
    def agree(program):
        _agree(program)

    with pytest.raises(AssertionError):
        if caught_by == "property":
            agree()
        else:
            _frames_on_a_quiet_instant("bfd", 3)
