"""BFD session behaviour: bring-up, detection speed, packet sizes, and a
quiet session's next transmission."""

from __future__ import annotations

import random

import pytest

from repro.bfd.messages import BfdControlPacket, BfdState, BFD_PORT
from repro.bfd.session import (SLOW_TX_INTERVAL_US, BfdManager, BfdTimers,
                               QuietBfd)
from repro.harness.experiments import build_and_converge
from repro.iputil.udp_service import UdpService
from repro.net.capture import Capture
from repro.scenario.targets import TargetResolver
from repro.sim.units import MILLISECOND, SECOND
from repro.stack.addresses import Ipv4Address
from repro.net.world import World
from repro.stack.ipv4 import PROTO_UDP, Ipv4Packet
from repro.stack.udp import UdpDatagram
from repro.topology.clos import ClosParams
from repro.traffic.generator import ReceiverAnalyzer, TrafficSender

from tests.conftest import make_ip_pair


def ip(text):
    return Ipv4Address.parse(text)


def bfd_pair(world, timers=BfdTimers()):
    a, b, sa, sb = make_ip_pair(world)
    ua, ub = UdpService(sa), UdpService(sb)
    events = []

    def listener(tag):
        return lambda session, is_up: events.append(
            (world.sim.now, tag, "up" if is_up else "down")
        )

    ma = BfdManager(ua, rng=world.rng.stream("bfd-a"))
    mb = BfdManager(ub, rng=world.rng.stream("bfd-b"))
    sess_a = ma.create_session(ip("10.0.0.2"), ip("10.0.0.1"), timers, listener("a"))
    sess_b = mb.create_session(ip("10.0.0.1"), ip("10.0.0.2"), timers, listener("b"))
    return a, b, sess_a, sess_b, events


def test_sessions_come_up(world):
    a, b, sa, sb, events = bfd_pair(world)
    world.run(until=5 * SECOND)
    assert sa.up and sb.up
    ups = [e for e in events if e[2] == "up"]
    assert {e[1] for e in ups} == {"a", "b"}


def test_detection_after_interface_failure(world):
    """With 100 ms tx / mult 3, the surviving side must notice within
    ~300 ms of the last received hello — the paper's BFD configuration."""
    a, b, sa, sb, events = bfd_pair(world)
    world.run(until=5 * SECOND)
    assert sa.up and sb.up
    fail_at = world.sim.now
    b.interfaces["eth1"].set_admin(False)  # b goes dark
    world.run(until=fail_at + 2 * SECOND)
    downs = [e for e in events if e[2] == "down" and e[1] == "a"]
    assert downs, "a never detected the failure"
    detect_latency = downs[0][0] - fail_at
    assert detect_latency <= 300 * MILLISECOND + 20 * MILLISECOND
    assert not sa.up


def test_detection_scales_with_timers(world):
    fast = BfdTimers(tx_interval_us=50 * MILLISECOND, detect_mult=3)
    a, b, sa, sb, events = bfd_pair(world, fast)
    world.run(until=5 * SECOND)
    fail_at = world.sim.now
    b.interfaces["eth1"].set_admin(False)
    world.run(until=fail_at + SECOND)
    downs = [e for e in events if e[2] == "down" and e[1] == "a"]
    assert downs and downs[0][0] - fail_at <= 150 * MILLISECOND + 10 * MILLISECOND


def test_control_packets_are_66_bytes(world):
    def is_bfd(frame):
        pkt = frame.payload
        return (isinstance(pkt, Ipv4Packet) and isinstance(pkt.payload, UdpDatagram)
                and pkt.payload.dst_port == BFD_PORT)

    cap = Capture(frame_filter=is_bfd)
    a, b, sa, sb, events = bfd_pair(world)
    cap.attach(a.interfaces.values())
    world.run(until=2 * SECOND)
    tx = [r for r in cap.records if r.direction.value == "tx"]
    assert tx
    assert all(r.wire_size == 66 for r in tx)  # paper Fig. 9


def test_up_rate_is_faster_than_down_rate(world):
    """Sessions transmit at 1/s while down, 10/s (100 ms) once up."""
    a, b, sa, sb, events = bfd_pair(world)
    world.run(until=4 * SECOND)
    sent_while_coming_up = sa.packets_sent
    world.run(until=8 * SECOND)
    later = sa.packets_sent - sent_while_coming_up
    assert later >= 4 * 8  # ~10/s for 4 s, with jitter margin


def test_peer_signalled_down_propagates_fast(world):
    """When one side's BFD goes AdminDown/Down, its Down packets drop the
    peer immediately (no wait for full detection time)."""
    a, b, sa, sb, events = bfd_pair(world)
    world.run(until=5 * SECOND)
    t0 = world.sim.now
    sb.admin_reset()  # b restarts: sends state=Down packets
    world.run(until=t0 + SECOND)
    downs = [e for e in events if e[2] == "down" and e[1] == "a" and e[0] >= t0]
    assert downs, "peer-signalled down not seen"


def test_session_recovers_after_interface_restored(world):
    a, b, sa, sb, events = bfd_pair(world)
    world.run(until=5 * SECOND)
    b.interfaces["eth1"].set_admin(False)
    world.run_for(SECOND)
    b.interfaces["eth1"].set_admin(True)
    sa.admin_reset()
    sb.admin_reset()
    world.run_for(5 * SECOND)
    assert sa.up and sb.up


def test_duplicate_session_rejected(world):
    a, b, sa, sb, events = bfd_pair(world)
    with pytest.raises(ValueError):
        a.bfd.create_session(ip("10.0.0.2"), ip("10.0.0.1"))


def test_discriminator_validation():
    with pytest.raises(ValueError):
        BfdControlPacket(BfdState.DOWN, 3, 0, 0, 1, 1)
    with pytest.raises(ValueError):
        BfdControlPacket(BfdState.DOWN, 0, 1, 0, 1, 1)


# ----------------------------------------------------------------------
# The transmit flyweight (BfdSession._transmit keeps one packet while
# nothing it is built from changes) must be invisible on the wire.
# ----------------------------------------------------------------------
def _flyweight_run(bypass: bool):
    """Both sessions through Down -> Init -> Up, a peer restart under a
    new discriminator, a detection expiry and an ``admin_reset``.  Every
    BFD packet tapped at transmit is compared with the one the per-tick
    construction ``_transmit`` replaced would have built from the
    session's fields at that instant.  ``bypass`` forgets the flyweight
    before every transmission, i.e. restores that construction."""
    world = World(seed=42)
    a, b, stack_a, stack_b = make_ip_pair(world)
    managers = {
        "A": BfdManager(UdpService(stack_a), rng=world.rng.stream("bfd-a")),
        "B": BfdManager(UdpService(stack_b), rng=world.rng.stream("bfd-b")),
    }
    addr = {"A": ip("10.0.0.1"), "B": ip("10.0.0.2")}
    wire = []

    def session_of(name):
        (session,) = managers[name].sessions.values()
        return session

    def create(name, peer):
        session = managers[name].create_session(addr[peer], addr[name])
        if bypass:
            def rebuild_every_time(transmit=session._transmit):
                session._tx_inputs = None
                transmit()
            session._tx_timer.callback = rebuild_every_time

    def tap(iface, frame, direction):
        if direction != "tx" or not isinstance(frame.payload, Ipv4Packet):
            return
        s = session_of(iface.node.name)
        fresh = Ipv4Packet(
            src=s.local, dst=s.peer, proto=PROTO_UDP, ttl=255,
            payload=UdpDatagram(
                src_port=49152 + (s.my_discriminator % 1024),
                dst_port=BFD_PORT,
                payload=BfdControlPacket(
                    state=s.state, detect_mult=s.timers.detect_mult,
                    my_discriminator=s.my_discriminator,
                    your_discriminator=s.your_discriminator,
                    desired_min_tx_us=(s.timers.tx_interval_us if s.up
                                       else SLOW_TX_INTERVAL_US),
                    required_min_rx_us=s.timers.tx_interval_us)))
        assert frame.payload == fresh, (world.sim.now, iface.node.name)
        control = frame.payload.payload.payload
        wire.append((world.sim.now, iface.node.name, control.state,
                     control.your_discriminator))

    for node in (a, b):
        node.interfaces["eth1"].add_tap(tap)
    create("A", "B")
    create("B", "A")
    world.run(until=1 * MILLISECOND)                # one exchange: both Init
    assert session_of("A").state is session_of("B").state is BfdState.INIT
    b.interfaces["eth1"].set_admin(False)           # B falls silent, so A
    world.run(until=1500 * MILLISECOND)             # repeats Init, your=1
    managers["B"].remove_session(addr["A"])         # peer restart: B is back
    b.interfaces["eth1"].set_admin(True)            # as discriminator 2 and
    create("B", "A")                                # A, still Init, must say so
    world.run(until=5 * SECOND)
    assert session_of("A").up and session_of("B").up
    assert session_of("A").your_discriminator == 2
    b.interfaces["eth1"].set_admin(False)           # A's detection expires
    world.run(until=6 * SECOND)
    assert not session_of("A").up
    b.interfaces["eth1"].set_admin(True)
    world.run(until=10 * SECOND)
    assert session_of("A").up and session_of("B").up
    session_of("B").admin_reset()                   # B's your_discriminator -> 0
    world.run(until=14 * SECOND)
    assert session_of("A").up and session_of("B").up
    return {
        "wire": wire,
        "packets_sent": [session_of(n).packets_sent for n in "AB"],
        "ip_sent": [stack_a.counters.sent, stack_b.counters.sent],
        # through the settling accessor: a quiet session draws lazily
        "rng": [managers[n].rng.bit_generator.state for n in "AB"],
        "now": world.sim.now,
    }


def test_transmit_flyweight_is_invisible_on_the_wire():
    flyweight, rebuilt = _flyweight_run(False), _flyweight_run(True)
    assert flyweight == rebuilt
    states = {state for _t, _n, state, _y in flyweight["wire"]}
    assert states == {BfdState.DOWN, BfdState.INIT, BfdState.UP}
    assert {your for _t, name, _s, your in flyweight["wire"]
            if name == "A"} == {0, 1, 2}
    # A's session lived through all of it: every packet it counted is there
    assert len([1 for _t, name, _s, _y in flyweight["wire"] if name == "A"]) \
        == flyweight["packets_sent"][0]


# ----------------------------------------------------------------------
# a quiet session's next transmission: the value the manager keeps
# beside its heap entry, against a scan of the heap
# ----------------------------------------------------------------------
def _check_quiet_next_tx(deployment) -> int:
    """The heap holds one entry per quiet session, and each quiet
    session's ``next_tx`` is that entry's due time; returns how many
    sessions were quiet."""
    quiet_sessions = 0
    for speaker in deployment.speakers.values():
        manager = speaker.bfd
        manager.settle()
        heap, quiet = manager._quiet, {}
        for session in manager.sessions.values():
            iface = session.node.interfaces[session.port]
            for exchange in iface.quiet_tx or ():
                if type(exchange) is QuietBfd and exchange.session is session:
                    quiet[session] = exchange.next_tx(iface)
        assert len(heap) == len(quiet)
        for session, next_tx in quiet.items():
            assert next_tx == next(entry for entry in heap
                                   if entry[3] is session)[0]
        quiet_sessions += len(quiet)
    return quiet_sessions


def test_quiet_next_tx_is_the_heap_entry_at_any_instant():
    """A converged 4-PoD bgp-bfd fabric run to pseudo-random instants,
    with a crossing data burst (each frame asks ``next_tx``) and taps
    that wake sessions and let them go quiet again."""
    world, topo, deployment = build_and_converge(
        ClosParams(num_pods=4), "bgp-bfd", seed=0)
    resolver = TargetResolver(topo)
    src = resolver.endpoint("server:tor[3]")
    dst = resolver.endpoint("server:tor[0]")
    ReceiverAnalyzer(deployment.servers[dst].udp)
    TrafficSender(udp=deployment.servers[src].udp,
                  dst=topo.server_address(dst), gap_us=MILLISECOND,
                  ).start(count=3000)
    ports = sorted({(s.node.name, s.port) for sp in deployment.speakers.values()
                    for s in sp.bfd.sessions.values()})
    rng = random.Random(0)
    tapped, peak = [], 0
    for step in range(200):
        world.run_for(rng.randrange(1, 40 * MILLISECOND))
        peak = max(peak, _check_quiet_next_tx(deployment))
        if step % 20 == 10:
            name, port = rng.choice(ports)
            iface = topo.node(name).interfaces[port]
            iface.add_tap(_ignore_frame)
            tapped.append(iface)
        elif step % 20 == 0 and tapped:
            tapped.pop(0).remove_tap(_ignore_frame)
    assert peak > len(ports) // 2


def _ignore_frame(iface, frame, direction) -> None:
    pass
