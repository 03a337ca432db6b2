"""pcap export: files parse back and carry the captured frames."""

from __future__ import annotations

import struct
from pathlib import Path

import pytest

from repro.core.messages import MtpKeepalive
from repro.net.capture import Capture, Direction
from repro.net.world import World
from repro.stack.addresses import BROADCAST_MAC
from repro.stack.ethernet import ETHERTYPE_MTP, EthernetFrame
from repro.wire.codec import decode_frame
from repro.wire.pcap import PCAP_MAGIC, PcapWriter, read_pcap, write_capture


def captured_keepalives(world, count=3):
    a = world.add_node("A")
    b = world.add_node("B")
    link = world.connect(a, b)
    cap = Capture()
    cap.attach((link.end_a,))
    ia = a.interfaces["eth1"]
    for i in range(count):
        world.sim.schedule_at(1000 * (i + 1), ia.send, EthernetFrame(
            BROADCAST_MAC, ia.mac, ETHERTYPE_MTP, MtpKeepalive()))
    world.run()
    return cap


def test_write_and_read_back(world, tmp_path: Path):
    cap = captured_keepalives(world)
    path = tmp_path / "trace.pcap"
    count = write_capture(cap, path)
    assert count == 3
    records = read_pcap(path)
    assert len(records) == 3
    ts, blob = records[0]
    assert ts == 1000
    assert len(blob) == 60  # padded min frame
    decoded = decode_frame(blob, payload_len=1)
    assert isinstance(decoded.payload, MtpKeepalive)


def test_global_header_layout(world, tmp_path: Path):
    cap = captured_keepalives(world, count=1)
    path = tmp_path / "t.pcap"
    write_capture(cap, path)
    head = path.read_bytes()[:24]
    magic, major, minor, _tz, _sig, snaplen, linktype = struct.unpack(
        "!IHHiIII", head)
    assert magic == PCAP_MAGIC
    assert (major, minor) == (2, 4)
    assert linktype == 1  # Ethernet


def test_direction_filter_avoids_duplicates(world, tmp_path: Path):
    a = world.add_node("A")
    b = world.add_node("B")
    link = world.connect(a, b)
    cap = Capture()
    cap.attach((link.end_a, link.end_b))  # both ends tapped
    ia = a.interfaces["eth1"]
    ia.send(EthernetFrame(BROADCAST_MAC, ia.mac, ETHERTYPE_MTP, MtpKeepalive()))
    world.run()
    assert len(cap.records) == 2  # tx at A, rx at B
    path = tmp_path / "t.pcap"
    assert write_capture(cap, path) == 1
    assert write_capture(cap, path, direction=None) == 2


def test_time_window(world, tmp_path: Path):
    cap = captured_keepalives(world, count=3)  # at 1000, 2000, 3000
    path = tmp_path / "t.pcap"
    assert write_capture(cap, path, since=1500, until=2500) == 1
    assert read_pcap(path)[0][0] == 2000


def test_snaplen_truncates(world, tmp_path: Path):
    cap = captured_keepalives(world, count=1)
    path = tmp_path / "t.pcap"
    with path.open("wb") as stream:
        writer = PcapWriter(stream, snaplen=20)
        for rec in cap.records:
            writer.write_record(rec)
    ts, blob = read_pcap(path)[0]
    assert len(blob) == 20


def test_read_rejects_other_files(tmp_path: Path):
    bad = tmp_path / "not.pcap"
    bad.write_bytes(b"\x00" * 40)
    with pytest.raises(ValueError):
        read_pcap(bad)


def test_real_fabric_capture_exports(tmp_path: Path):
    """A converged MR-MTP fabric's control traffic exports to pcap and
    every frame decodes back."""
    from repro.harness.experiments import build_and_converge
    from repro.topology.clos import two_pod_params

    world, topo, dep = build_and_converge(two_pod_params(), "mtp")
    link = world.find_link(topo.tors[0][0][0], topo.aggs[0][0][0])
    cap = Capture()
    cap.attach((link.end_a, link.end_b))
    world.run_for(500_000)
    path = tmp_path / "fabric.pcap"
    count = write_capture(cap, path)
    assert count > 0
    for ts, blob in read_pcap(path):
        frame = decode_frame(blob)
        assert frame.ethertype == ETHERTYPE_MTP
