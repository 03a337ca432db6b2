"""Address value types, including hypothesis round-trips."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.stack.addresses import (
    BROADCAST_MAC,
    Ipv4Address,
    Ipv4Network,
    MacAddress,
)


class TestMac:
    def test_parse_format_roundtrip(self):
        mac = MacAddress.parse("6a:4a:d1:8d:cd:8b")
        assert str(mac) == "6a:4a:d1:8d:cd:8b"

    def test_broadcast(self):
        assert str(BROADCAST_MAC) == "ff:ff:ff:ff:ff:ff"
        assert BROADCAST_MAC.is_broadcast

    def test_from_index_is_locally_administered(self):
        mac = MacAddress.from_index(1)
        assert (mac.value >> 40) & 0x02

    def test_from_index_unique(self):
        macs = {MacAddress.from_index(i) for i in range(100)}
        assert len(macs) == 100

    def test_bad_parse(self):
        with pytest.raises(ValueError):
            MacAddress.parse("not-a-mac")

    @given(st.integers(min_value=0, max_value=(1 << 48) - 1))
    def test_str_parse_roundtrip(self, value):
        mac = MacAddress(value)
        assert MacAddress.parse(str(mac)) == mac


class TestIpv4:
    def test_parse_format_roundtrip(self):
        ip = Ipv4Address.parse("192.168.11.1")
        assert str(ip) == "192.168.11.1"
        assert ip.octets == (192, 168, 11, 1)

    def test_ordering(self):
        assert Ipv4Address.parse("10.0.0.1") < Ipv4Address.parse("10.0.0.2")

    def test_add_offset(self):
        assert str(Ipv4Address.parse("10.0.0.1") + 5) == "10.0.0.6"

    def test_bad_parse(self):
        with pytest.raises(ValueError):
            Ipv4Address.parse("256.0.0.1")
        with pytest.raises(ValueError):
            Ipv4Address.parse("1.2.3")

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_str_parse_roundtrip(self, value):
        ip = Ipv4Address(value)
        assert Ipv4Address.parse(str(ip)) == ip

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_str_is_the_joined_octets(self, value):
        """Shifts and masks in one f-string render exactly what joining
        the four octets did."""
        ip = Ipv4Address(value)
        assert str(ip) == ".".join(str(o) for o in ip.octets)


class TestNetwork:
    def test_parse_and_contains(self):
        net = Ipv4Network.parse("192.168.11.0/24")
        assert net.contains(Ipv4Address.parse("192.168.11.1"))
        assert not net.contains(Ipv4Address.parse("192.168.12.1"))

    def test_host_bits_rejected(self):
        with pytest.raises(ValueError):
            Ipv4Network.parse("192.168.11.1/24")

    def test_of_clears_host_bits(self):
        net = Ipv4Network.of("192.168.11.77", 24)
        assert str(net) == "192.168.11.0/24"

    def test_host_indexing(self):
        net = Ipv4Network.parse("10.1.0.0/24")
        assert str(net.host(1)) == "10.1.0.1"
        with pytest.raises(ValueError):
            net.host(300)

    def test_hosts_iteration_p2p(self):
        net = Ipv4Network.parse("172.16.0.0/31")
        assert [str(h) for h in net.hosts()] == ["172.16.0.0", "172.16.0.1"]

    def test_hosts_iteration_excludes_network_broadcast(self):
        net = Ipv4Network.parse("10.0.0.0/30")
        assert [str(h) for h in net.hosts()] == ["10.0.0.1", "10.0.0.2"]

    def test_zero_prefix(self):
        default = Ipv4Network.parse("0.0.0.0/0")
        assert default.contains(Ipv4Address.parse("200.1.2.3"))

    @given(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=32),
    )
    def test_of_always_contains_seed_address(self, value, plen):
        ip = Ipv4Address(value)
        net = Ipv4Network.of(ip, plen)
        assert net.contains(ip)

    @given(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=32),
    )
    def test_hash_is_the_dataclass_hash(self, value, plen):
        """``__hash__`` skips the address's own call but hashes what a
        frozen dataclass would, so sets of prefixes iterate as before."""
        net = Ipv4Network.of(Ipv4Address(value), plen)
        assert hash(net) == hash((net.address, net.prefix_len))
