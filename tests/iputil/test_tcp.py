"""TCP: handshake, ordered delivery, retransmission, teardown, RST."""

from __future__ import annotations

import pytest

from repro.iputil.tcp import TcpService, TcpState, MSS
from repro.stack.addresses import Ipv4Address
from repro.stack.payload import RawBytes
from repro.sim.units import SECOND

from tests.conftest import make_ip_pair


def ip(text):
    return Ipv4Address.parse(text)


def tcp_pair(world):
    a, b, sa, sb = make_ip_pair(world)
    return a, b, TcpService(sa), TcpService(sb)


def test_handshake_establishes_both_ends(world):
    a, b, ta, tb = tcp_pair(world)
    accepted = []
    tb.listen(179, accepted.append)
    conn = ta.connect(ip("10.0.0.2"), 179)
    world.run()
    assert conn.state is TcpState.ESTABLISHED
    assert len(accepted) == 1
    assert accepted[0].state is TcpState.ESTABLISHED


def test_message_per_segment_delivery_in_order(world):
    a, b, ta, tb = tcp_pair(world)
    received = []
    def on_accept(conn):
        conn.on_receive = received.append
    tb.listen(179, on_accept)
    conn = ta.connect(ip("10.0.0.2"), 179)
    conn.on_established = lambda: [conn.send(RawBytes(10 + i, tag=f"m{i}"))
                                   for i in range(5)]
    world.run()
    assert [p.tag for p in received] == ["m0", "m1", "m2", "m3", "m4"]
    assert [p.wire_size for p in received] == [10, 11, 12, 13, 14]


def test_bidirectional_traffic(world):
    a, b, ta, tb = tcp_pair(world)
    got_at_a, got_at_b = [], []
    def on_accept(conn):
        conn.on_receive = lambda p: (got_at_b.append(p.tag), conn.send(RawBytes(5, tag="pong")))
    tb.listen(179, on_accept)
    conn = ta.connect(ip("10.0.0.2"), 179)
    conn.on_receive = lambda p: got_at_a.append(p.tag)
    conn.on_established = lambda: conn.send(RawBytes(5, tag="ping"))
    world.run()
    assert got_at_b == ["ping"] and got_at_a == ["pong"]


def test_send_before_established_raises(world):
    a, b, ta, tb = tcp_pair(world)
    tb.listen(179, lambda c: None)
    conn = ta.connect(ip("10.0.0.2"), 179)
    with pytest.raises(RuntimeError):
        conn.send(RawBytes(1))


def test_oversize_send_rejected(world):
    a, b, ta, tb = tcp_pair(world)
    tb.listen(179, lambda c: None)
    conn = ta.connect(ip("10.0.0.2"), 179)
    world.run()
    with pytest.raises(ValueError):
        conn.send(RawBytes(MSS + 1))


def test_retransmission_recovers_from_outage(world):
    """Down the receiver's interface briefly: segment retransmits and the
    stream survives once the interface returns (Slow path: ARP re-resolution
    not needed since cache is warm)."""
    a, b, ta, tb = tcp_pair(world)
    received = []
    def on_accept(conn):
        conn.on_receive = received.append
    tb.listen(179, on_accept)
    conn = ta.connect(ip("10.0.0.2"), 179)
    world.run(until=SECOND)
    assert conn.established
    # black-hole b's side for 300 ms
    b.interfaces["eth1"].set_admin(False)
    world.sim.schedule_after(300_000, b.interfaces["eth1"].set_admin, True)
    conn.send(RawBytes(42, tag="survives"))
    world.run(until=5 * SECOND)
    assert [p.tag for p in received] == ["survives"]
    assert conn.segments_retransmitted >= 1


def test_retransmit_limit_aborts_connection(world):
    a, b, ta, tb = tcp_pair(world)
    closed = []
    tb.listen(179, lambda c: None)
    conn = ta.connect(ip("10.0.0.2"), 179)
    world.run(until=SECOND)
    assert conn.established
    conn.on_close = closed.append
    b.interfaces["eth1"].set_admin(False)  # permanent black hole
    conn.send(RawBytes(1))
    world.run(until=60 * SECOND)
    assert conn.state is TcpState.CLOSED
    assert closed == ["retransmit-timeout"]


def test_graceful_close_fin_handshake(world):
    a, b, ta, tb = tcp_pair(world)
    server_conns = []
    def on_accept(conn):
        server_conns.append(conn)
        conn.on_close = lambda reason: conn.close()  # close when peer closes
    tb.listen(179, on_accept)
    conn = ta.connect(ip("10.0.0.2"), 179)
    world.run(until=SECOND)
    conn.close()
    world.run(until=10 * SECOND)
    assert conn.state in (TcpState.TIME_WAIT, TcpState.CLOSED)
    assert server_conns[0].state is TcpState.CLOSED


def test_rst_on_connect_to_closed_port(world):
    a, b, ta, tb = tcp_pair(world)
    closed = []
    conn = ta.connect(ip("10.0.0.2"), 9999)  # nothing listening
    conn.on_close = closed.append
    world.run(until=SECOND)
    assert conn.state is TcpState.CLOSED
    assert closed == ["reset-by-peer"]


def test_abort_sends_rst_to_peer(world):
    a, b, ta, tb = tcp_pair(world)
    server = []
    closed = []
    def on_accept(conn):
        server.append(conn)
        conn.on_close = closed.append
    tb.listen(179, on_accept)
    conn = ta.connect(ip("10.0.0.2"), 179)
    world.run(until=SECOND)
    conn.abort("local-teardown")
    world.run(until=2 * SECOND)
    assert server[0].state is TcpState.CLOSED
    assert closed == ["reset-by-peer"]


def test_duplicate_listen_rejected(world):
    a, b, ta, tb = tcp_pair(world)
    tb.listen(179, lambda c: None)
    with pytest.raises(ValueError):
        tb.listen(179, lambda c: None)


def test_pure_acks_are_66_bytes_on_the_wire(world):
    """Every data segment triggers a 66-byte pure ACK — the TCP overhead
    the paper attributes to BGP keepalive traffic."""
    from repro.net.capture import Capture
    from repro.stack.ipv4 import Ipv4Packet
    from repro.stack.tcp_segment import TcpSegment

    a, b, ta, tb = tcp_pair(world)

    def is_pure_ack(frame):
        pkt = frame.payload
        return (isinstance(pkt, Ipv4Packet)
                and isinstance(pkt.payload, TcpSegment)
                and pkt.payload.data_len == 0
                and pkt.payload.seq_space == 0)

    cap = Capture(frame_filter=is_pure_ack)
    cap.attach(b.interfaces.values())
    def on_accept(conn):
        conn.on_receive = lambda p: None
    tb.listen(179, on_accept)
    conn = ta.connect(ip("10.0.0.2"), 179)
    conn.on_established = lambda: conn.send(RawBytes(19))
    world.run(until=SECOND)
    tx_acks = [r for r in cap.records if r.direction.value == "tx"]
    assert tx_acks, "expected at least one pure ACK from the receiver"
    assert all(r.wire_size == 66 for r in tx_acks)
