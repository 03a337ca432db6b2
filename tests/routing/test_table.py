"""Routing table: LPM, ECMP selection, change tracking."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.routing.ecmp import FlowKey, ecmp_hash
from repro.routing.table import NextHop, Route, RoutingTable
from repro.stack.addresses import Ipv4Address, Ipv4Network


def ip(text):
    return Ipv4Address.parse(text)


def net(text):
    return Ipv4Network.parse(text)


def test_lpm_prefers_longest_prefix():
    table = RoutingTable()
    table.install(Route(net("10.0.0.0/8"), (NextHop("eth1"),)))
    table.install(Route(net("10.1.0.0/16"), (NextHop("eth2"),)))
    table.install(Route(net("10.1.1.0/24"), (NextHop("eth3"),)))
    assert table.lookup(ip("10.1.1.5")).nexthops[0].interface == "eth3"
    assert table.lookup(ip("10.1.2.5")).nexthops[0].interface == "eth2"
    assert table.lookup(ip("10.9.9.9")).nexthops[0].interface == "eth1"
    assert table.lookup(ip("11.0.0.1")) is None


def test_default_route_matches_everything():
    table = RoutingTable()
    table.install(Route(net("0.0.0.0/0"), (NextHop("eth1", ip("10.0.0.1")),)))
    assert table.lookup(ip("200.1.2.3")) is not None


def test_install_replace_and_withdraw():
    table = RoutingTable()
    prefix = net("192.168.11.0/24")
    table.install(Route(prefix, (NextHop("eth1"),)))
    table.install(Route(prefix, (NextHop("eth2"),)))
    assert table.lookup(ip("192.168.11.1")).nexthops[0].interface == "eth2"
    assert len(table) == 1
    assert table.withdraw(prefix)
    assert not table.withdraw(prefix)
    assert table.lookup(ip("192.168.11.1")) is None


def test_identical_reinstall_does_not_count_as_change():
    table = RoutingTable()
    route = Route(net("10.0.0.0/24"), (NextHop("eth1"),), proto="bgp", metric=20)
    table.install(route)
    assert table.change_count == 1
    table.install(Route(net("10.0.0.0/24"), (NextHop("eth1"),), proto="bgp", metric=20))
    assert table.change_count == 1
    table.install(Route(net("10.0.0.0/24"), (NextHop("eth2"),), proto="bgp", metric=20))
    assert table.change_count == 2


# ----------------------------------------------------------------------
# LPM index vs. a brute-force oracle, under any interleaving of changes
# ----------------------------------------------------------------------
# a few nested bases so that draws collide: covering prefixes, replaces,
# a prefix length losing its last route, /0 and /32
_BASES = (0x0A000000, 0x0A010000, 0x0A010100, 0x0A010101, 0x0A0101FF,
          0xC0A80B00, 0xFFFFFFFF, 0x00000000)
_addresses = st.one_of(
    st.sampled_from(_BASES),
    st.integers(min_value=0, max_value=2**32 - 1),
).map(Ipv4Address)
_prefixes = st.builds(
    Ipv4Network.of, _addresses,
    st.one_of(st.sampled_from((0, 8, 16, 24, 31, 32)),
              st.integers(min_value=0, max_value=32)))
_protos = st.sampled_from(("connected", "static", "bgp"))
_table_ops = st.one_of(
    st.tuples(st.just("install"), _prefixes,
              st.sampled_from(("eth1", "eth2")), _protos),
    st.tuples(st.just("withdraw"), _prefixes),
    st.tuples(st.just("flush"), _protos),
)


def _oracle_lookup(model, dst):
    best = None
    for prefix in model:
        if prefix.contains(dst) and (
                best is None or prefix.prefix_len > best.prefix_len):
            best = prefix
    return best


@given(ops=st.lists(_table_ops, max_size=40),
       probes=st.lists(_addresses, min_size=1, max_size=12))
def test_lookup_matches_brute_force_oracle(ops, probes):
    table = RoutingTable()
    model: dict[Ipv4Network, tuple[str, str]] = {}
    changes = 0
    for op in ops:
        if op[0] == "install":
            _, prefix, iface, proto = op
            if model.get(prefix) != (iface, proto):
                changes += 1  # an identical reinstall is a no-op
            model[prefix] = (iface, proto)
            table.install(Route(prefix, (NextHop(iface),), proto=proto))
        elif op[0] == "withdraw":
            present = op[1] in model
            changes += present
            model.pop(op[1], None)
            assert table.withdraw(op[1]) == present
        else:
            doomed = [p for p, (_, proto) in model.items() if proto == op[1]]
            changes += bool(doomed)
            for prefix in doomed:
                del model[prefix]
            assert table.flush_proto(op[1]) == doomed
        assert table.change_count == changes
        assert len(table) == len(model)
        for dst in probes + [p.address for p in model]:
            want = _oracle_lookup(model, dst)
            got = table.lookup(dst)
            if want is None:
                assert got is None
            else:
                assert got.prefix == want
                assert (got.nexthops[0].interface, got.proto) == model[want]


def test_length_whose_last_route_went_is_no_longer_probed():
    table = RoutingTable()
    table.install(Route(net("0.0.0.0/0"), (NextHop("eth0"),)))
    table.install(Route(net("10.1.1.1/32"), (NextHop("eth1"),)))
    table.install(Route(net("10.1.1.0/24"), (NextHop("eth2"),), proto="bgp"))
    assert table.lookup(ip("10.1.1.1")).nexthops[0].interface == "eth1"
    assert table.withdraw(net("10.1.1.1/32"))
    assert table.lookup(ip("10.1.1.1")).nexthops[0].interface == "eth2"
    assert table.flush_proto("bgp") == [net("10.1.1.0/24")]
    assert table.lookup(ip("10.1.1.1")).nexthops[0].interface == "eth0"
    assert [mask for mask, _ in table._lpm] == [0]
    table.install(Route(net("10.1.1.1/32"), (NextHop("eth3"),)))
    assert table.lookup(ip("10.1.1.1")).nexthops[0].interface == "eth3"
    assert table.lookup(ip("10.1.1.2")).nexthops[0].interface == "eth0"


def test_change_timestamps_recorded():
    from repro.sim.engine import Simulator

    sim = Simulator()
    table = RoutingTable(sim=sim)
    sim.schedule_at(500, lambda: table.install(Route(net("10.0.0.0/24"), (NextHop("e"),))))
    sim.run()
    assert table.last_change_time == 500


def test_ecmp_selection_is_flow_sticky():
    table = RoutingTable(salt=3)
    nexthops = (NextHop("eth1"), NextHop("eth2"), NextHop("eth3"))
    table.install(Route(net("10.0.0.0/8"), nexthops))
    flow = FlowKey(src=1, dst=2, proto=17, src_port=1000, dst_port=2000)
    picks = {table.select_nexthop(ip("10.1.1.1"), flow).interface for _ in range(10)}
    assert len(picks) == 1  # same flow -> same path


def test_ecmp_spreads_distinct_flows():
    table = RoutingTable()
    nexthops = (NextHop("eth1"), NextHop("eth2"))
    table.install(Route(net("10.0.0.0/8"), nexthops))
    seen = {
        table.select_nexthop(ip("10.1.1.1"),
                             FlowKey(src=s, dst=2, proto=17,
                                     src_port=1000 + s, dst_port=2000)).interface
        for s in range(64)
    }
    assert seen == {"eth1", "eth2"}


def test_route_requires_nexthops():
    with pytest.raises(ValueError):
        Route(net("10.0.0.0/8"), ())


def test_render_matches_ip_route_style():
    table = RoutingTable()
    table.install(Route(net("192.168.2.0/24"),
                        (NextHop("eth3", ip("172.16.0.1")),
                         NextHop("eth4", ip("172.16.8.1"))),
                        proto="bgp", metric=20))
    text = table.render()
    assert "192.168.2.0/24 proto bgp metric 20" in text
    assert "nexthop via 172.16.0.1 dev eth3 weight 1" in text


def test_memory_bytes_scales_with_entries_and_nexthops():
    table = RoutingTable()
    table.install(Route(net("10.0.0.0/24"), (NextHop("e1"),)))
    one = table.memory_bytes()
    table.install(Route(net("10.0.1.0/24"), (NextHop("e1"), NextHop("e2"))))
    assert table.memory_bytes() == one + 8 + 24


class TestEcmpHash:
    def test_deterministic(self):
        key = FlowKey(1, 2, 6, 80, 443)
        assert ecmp_hash(key, 8, salt=1) == ecmp_hash(key, 8, salt=1)

    def test_salt_changes_mapping_somewhere(self):
        keys = [FlowKey(s, 99, 6, 1234, 80) for s in range(32)]
        a = [ecmp_hash(k, 4, salt=0) for k in keys]
        b = [ecmp_hash(k, 4, salt=1) for k in keys]
        assert a != b

    def test_single_choice_short_circuits(self):
        assert ecmp_hash(FlowKey(1, 2), 1) == 0

    def test_invalid_choices(self):
        with pytest.raises(ValueError):
            ecmp_hash(FlowKey(1, 2), 0)

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=64),
    )
    def test_result_always_in_range(self, src, dst, n):
        assert 0 <= ecmp_hash(FlowKey(src, dst), n) < n

    def test_roughly_uniform_over_many_flows(self):
        counts = [0, 0, 0, 0]
        n_flows = 2000
        for s in range(n_flows):
            counts[ecmp_hash(FlowKey(s, 7, 17, 5000 + s, 9000), 4)] += 1
        for c in counts:
            assert abs(c - n_flows / 4) < n_flows * 0.08
