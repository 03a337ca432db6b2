"""Link/interface semantics, incl. the asymmetric admin-down behaviour."""

from __future__ import annotations

import pytest

from repro.stack.addresses import BROADCAST_MAC
from repro.stack.ethernet import EthernetFrame, ETHERTYPE_MTP
from repro.stack.payload import RawBytes


def frame(src_iface, size=100):
    return EthernetFrame(BROADCAST_MAC, src_iface.mac, ETHERTYPE_MTP, RawBytes(size))


def build_pair(world):
    a = world.add_node("A")
    b = world.add_node("B")
    link = world.connect(a, b)
    return a, b, link


def test_frame_delivery(world):
    a, b, link = build_pair(world)
    got = []
    b.register_handler(ETHERTYPE_MTP, lambda iface, f: got.append((world.sim.now, f)))
    ia = a.interfaces["eth1"]
    assert ia.send(frame(ia))
    world.run()
    assert len(got) == 1
    t, f = got[0]
    assert t > 0  # serialization + propagation
    assert f.wire_size == 114


def test_back_to_back_frames_serialize_sequentially(world):
    a, b, link = build_pair(world)
    times = []
    b.register_handler(ETHERTYPE_MTP, lambda iface, f: times.append(world.sim.now))
    ia = a.interfaces["eth1"]
    for _ in range(3):
        ia.send(frame(ia, size=1486))  # 1500-byte frames
    world.run()
    assert len(times) == 3
    gaps = [t2 - t1 for t1, t2 in zip(times, times[1:])]
    ser = link.serialization_us(frame(ia, size=1486))
    assert gaps == [ser, ser]


def test_send_on_admin_down_interface_fails(world):
    a, b, link = build_pair(world)
    ia = a.interfaces["eth1"]
    ia.set_admin(False)
    assert not ia.send(frame(ia))
    assert ia.counters.tx_dropped_down == 1


def test_frame_arriving_at_downed_interface_is_dropped(world):
    a, b, link = build_pair(world)
    got = []
    b.register_handler(ETHERTYPE_MTP, lambda iface, f: got.append(f))
    ia = a.interfaces["eth1"]
    ib = b.interfaces["eth1"]
    ib.set_admin(False)
    ia.send(frame(ia))
    world.run()
    assert got == []
    assert ib.counters.rx_dropped_down == 1


def test_admin_down_notifies_local_node_immediately(world):
    """The paper's key failure semantic: same-side instant detection."""
    a, b, link = build_pair(world)
    down_events = []
    a.on_interface_down(lambda iface: down_events.append((world.sim.now, iface.name)))
    b.on_interface_down(lambda iface: down_events.append(("REMOTE", iface.name)))
    a.interfaces["eth1"].set_admin(False)
    assert down_events == [(0, "eth1")]  # local yes, remote never
    world.run()
    assert len(down_events) == 1


def test_admin_up_notifies_local_node(world):
    a, b, link = build_pair(world)
    ups = []
    a.on_interface_up(lambda iface: ups.append(iface.name))
    ia = a.interfaces["eth1"]
    ia.set_admin(False)
    ia.set_admin(True)
    assert ups == ["eth1"]


def test_set_admin_idempotent(world):
    a, b, link = build_pair(world)
    events = []
    a.on_interface_down(lambda iface: events.append("down"))
    ia = a.interfaces["eth1"]
    ia.set_admin(False)
    ia.set_admin(False)
    assert events == ["down"]


def test_counters_track_tx_rx(world):
    a, b, link = build_pair(world)
    b.register_handler(ETHERTYPE_MTP, lambda iface, f: None)
    ia = a.interfaces["eth1"]
    ib = b.interfaces["eth1"]
    ia.send(frame(ia, size=100))
    world.run()
    assert ia.counters.tx_frames == 1
    assert ia.counters.tx_bytes == 114
    assert ib.counters.rx_frames == 1
    assert ib.counters.rx_bytes == 114


def test_cannot_double_cable(world):
    a, b, link = build_pair(world)
    c = world.add_node("C")
    with pytest.raises(ValueError):
        world.cable(a.interfaces["eth1"], c.add_interface())


def test_world_find_link(world):
    a, b, link = build_pair(world)
    assert world.find_link("A", "B") is link
    assert world.find_link("B", "A") is link
    assert world.find_link("A", "C") is None


def test_port_numbers_are_one_based_sequential(world):
    a = world.add_node("A")
    i1 = a.add_interface()
    i2 = a.add_interface()
    assert (i1.port_number, i2.port_number) == (1, 2)
    assert (i1.name, i2.name) == ("eth1", "eth2")


def test_duplicate_node_name_rejected(world):
    world.add_node("X")
    with pytest.raises(ValueError):
        world.add_node("X")


@pytest.mark.parametrize("queue_bytes", [None, 3_063])
@pytest.mark.parametrize("bandwidth", [10_000_000, 100_000_000_000])
def test_transmit_agrees_with_the_public_queries(world, queue_bytes, bandwidth):
    """``Link.transmit`` writes its peer, backlog and serialization
    arithmetic out; ``other_end`` / ``queue_backlog_bytes`` /
    ``serialization_us`` are the reference it must keep agreeing with —
    from both ends, with and without a finite buffer, and down to the
    1 us floor of a tiny frame on a fast line.  A sender that is not an
    end of the link gets the documented ValueError, never a delivery."""
    a, b, link = build_pair(world)
    link.bandwidth_bps, link.queue_bytes = bandwidth, queue_bytes
    arrivals = []
    for node in (a, b):
        node.register_handler(
            ETHERTYPE_MTP,
            lambda iface, f, node=node: arrivals.append(
                (world.sim.now, node.name, f)))
    expected, dropped, brim_full = [], 0, 0
    next_free = {link.end_a: 0, link.end_b: 0}
    # bursts (backlog builds), then a gap longer than the backlog (idle)
    for pause_us, sizes in ((0, (1486, 50, 1486, 1486, 1, 900)),
                            (50_000, (1486, 1486, 1486, 1486))):
        world.run(until=world.sim.now + pause_us)
        for size in sizes:
            for sender in (link.end_a, link.end_b):
                f = frame(sender, size=size)
                queued = link.queue_backlog_bytes(sender) + f.padded_wire_size
                fits = queue_bytes is None or queued <= queue_bytes
                brim_full += queued == queue_bytes
                assert link.transmit(sender, f) is fits
                if not fits:
                    dropped += 1
                    continue
                done = (max(world.sim.now, next_free[sender])
                        + link.serialization_us(f))
                next_free[sender] = done
                expected.append((done + link.propagation_us,
                                 link.other_end(sender).node.name, f))
    world.run()
    assert sorted(arrivals, key=lambda e: e[:2]) == \
        sorted(expected, key=lambda e: e[:2])
    assert link.frames_dropped_queue == dropped
    assert (dropped > 0) == (queue_bytes is not None)
    # at 10 Mb/s the third frame fills the 3,063-byte buffer to the byte
    assert (brim_full > 0) == (queue_bytes is not None and bandwidth < 10**9)
    assert link.frames_carried == len(expected)

    foreign = world.add_node("C").add_interface()
    for call in (lambda: link.transmit(foreign, frame(foreign)),
                 lambda: link.queue_backlog_bytes(foreign)):
        with pytest.raises(ValueError, match="not an end of this link"):
            call()
    assert link.frames_carried == len(expected)
