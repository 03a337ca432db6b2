"""TCP receive-path details: out-of-order reassembly, duplicates."""

from __future__ import annotations

from repro.iputil.tcp import TcpConnection, TcpService, TcpState
from repro.stack.addresses import Ipv4Address
from repro.stack.payload import RawBytes
from repro.stack.tcp_segment import TcpFlags, TcpSegment

from tests.conftest import make_ip_pair


def ip(text):
    return Ipv4Address.parse(text)


def established_pair(world):
    a, b, sa, sb = make_ip_pair(world)
    ta, tb = TcpService(sa), TcpService(sb)
    server_conns = []
    received = []

    def on_accept(conn):
        server_conns.append(conn)
        conn.on_receive = received.append

    tb.listen(179, on_accept)
    conn = ta.connect(ip("10.0.0.2"), 179)
    world.run(until=1_000_000)
    assert conn.established and server_conns[0].established
    return conn, server_conns[0], received


def seg(local: TcpConnection, seq, payload, flags=TcpFlags.ACK | TcpFlags.PSH):
    """Build a segment as if sent by the peer of ``local``."""
    return TcpSegment(
        src_port=local.remote_port, dst_port=local.local_port,
        seq=seq, ack=local.snd_nxt, flags=flags, payload=payload,
    )


def test_out_of_order_segments_reassemble_in_order(world):
    client, server, received = established_pair(world)
    base = server.rcv_nxt
    s1 = seg(server, base, RawBytes(10, tag="first"))
    s2 = seg(server, base + 10, RawBytes(10, tag="second"))
    s3 = seg(server, base + 20, RawBytes(10, tag="third"))
    # deliver 3, 1, 2
    server.handle_segment(s3)
    assert received == []  # buffered, not delivered
    server.handle_segment(s1)
    assert [p.tag for p in received] == ["first"]
    server.handle_segment(s2)
    assert [p.tag for p in received] == ["first", "second", "third"]
    assert server.rcv_nxt == base + 30


def test_duplicate_segment_reacked_not_redelivered(world):
    client, server, received = established_pair(world)
    base = server.rcv_nxt
    s1 = seg(server, base, RawBytes(10, tag="only"))
    server.handle_segment(s1)
    sent_before = server.segments_sent
    server.handle_segment(s1)  # duplicate
    assert [p.tag for p in received] == ["only"]
    assert server.segments_sent == sent_before + 1  # a pure re-ACK


def test_ack_prunes_retransmit_queue(world):
    client, server, received = established_pair(world)
    client.send(RawBytes(10))
    client.send(RawBytes(10))
    assert len(client._unacked) == 2
    world.run_for(1_000_000)
    assert client._unacked == []
    assert not client._rto_timer.running


def test_rst_mid_stream_closes_immediately(world):
    client, server, received = established_pair(world)
    closed = []
    server.on_close = closed.append
    rst = seg(server, server.rcv_nxt, RawBytes(0), flags=TcpFlags.RST)
    server.handle_segment(rst)
    assert server.state is TcpState.CLOSED
    assert closed == ["reset-by-peer"]


def test_seq_numbers_count_payload_bytes(world):
    client, server, received = established_pair(world)
    start = client.snd_nxt
    client.send(RawBytes(100))
    assert client.snd_nxt == start + 100
    client.send(RawBytes(1))
    assert client.snd_nxt == start + 101
