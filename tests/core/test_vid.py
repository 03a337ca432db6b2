"""VID algebra: derivation, extension, encoding, loop-freedom."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.vid import (
    ThirdByteDerivation,
    Vid,
    WideDerivation,
    derive_tor_root,
)
from repro.stack.addresses import Ipv4Address, Ipv4Network
from repro.topology.base import rack_subnet_for


class TestVid:
    def test_parse_str_roundtrip(self):
        vid = Vid.parse("11.1.2")
        assert str(vid) == "11.1.2"
        assert vid.root == 11
        assert vid.depth == 3

    def test_extend_appends_port(self):
        """The paper's rule: child VID = parent VID + arrival port."""
        assert str(Vid.root_of(11).extend(1)) == "11.1"
        assert str(Vid.parse("11.1").extend(2)) == "11.1.2"

    def test_parent(self):
        assert Vid.parse("11.1.2").parent() == Vid.parse("11.1")
        with pytest.raises(ValueError):
            Vid.root_of(11).parent()

    def test_is_extension_of(self):
        assert Vid.parse("11.1.2").is_extension_of(Vid.parse("11.1"))
        assert Vid.parse("11.1").is_extension_of(Vid.parse("11.1"))
        assert not Vid.parse("11.2.1").is_extension_of(Vid.parse("11.1"))
        assert not Vid.parse("12.1").is_extension_of(Vid.parse("11")), \
            "different roots never extend each other"

    def test_vid_encodes_its_own_path(self):
        """A VID *is* the path from the root: components after the first
        are the parent port numbers in tier order (paper section III.B)."""
        vid = Vid.root_of(11).extend(1).extend(2)
        assert vid.parts == (11, 1, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            Vid(())
        with pytest.raises(ValueError):
            Vid((0,))
        with pytest.raises(ValueError):
            Vid((70000,))
        with pytest.raises(ValueError):
            Vid.root_of(11).extend(0)

    def test_encode_decode_small(self):
        vid = Vid.parse("11.1.2")
        blob = vid.encode()
        assert len(blob) == vid.wire_size == 4
        decoded, offset = Vid.decode(blob)
        assert decoded == vid and offset == len(blob)

    def test_encode_decode_wide_component(self):
        vid = Vid((300, 1))
        blob = vid.encode()
        assert len(blob) == vid.wire_size == 1 + 3 + 1
        decoded, _ = Vid.decode(blob)
        assert decoded == vid

    def test_decode_sequence(self):
        vids = [Vid.parse("11.1"), Vid.parse("12.2.1")]
        blob = b"".join(v.encode() for v in vids)
        first, offset = Vid.decode(blob)
        second, end = Vid.decode(blob, offset)
        assert [first, second] == vids and end == len(blob)

    def test_ordering(self):
        assert Vid.parse("11.1") < Vid.parse("11.2")
        assert Vid.parse("11") < Vid.parse("11.1")

    @given(st.lists(st.integers(min_value=1, max_value=65535),
                    min_size=1, max_size=6))
    def test_encode_roundtrip_property(self, parts):
        vid = Vid(tuple(parts))
        decoded, offset = Vid.decode(vid.encode())
        assert decoded == vid and offset == vid.wire_size

    @given(st.lists(st.integers(min_value=1, max_value=64),
                    min_size=1, max_size=8))
    def test_extension_chain_is_loop_free(self, ports):
        """Following extensions never revisits a VID — the paper's
        inherent loop-avoidance."""
        vid = Vid.root_of(11)
        seen = {vid}
        for port in ports:
            vid = vid.extend(port)
            assert vid not in seen
            seen.add(vid)


class TestDerivation:
    def test_third_byte_from_subnet(self):
        net = Ipv4Network.parse("192.168.11.0/24")
        assert derive_tor_root(net) == 11

    def test_third_byte_from_address(self):
        d = ThirdByteDerivation()
        assert d.root_for_address(Ipv4Address.parse("192.168.14.1")) == 14

    def test_src_and_dst_derive_consistently(self):
        """The forwarding trick of section III.D: any address in the rack
        derives the rack's ToR VID."""
        d = ThirdByteDerivation()
        net = Ipv4Network.parse("192.168.23.0/24")
        assert all(
            d.root_for_address(host) == d.root_for_subnet(net)
            for host in list(net.hosts())[:5]
        )

    def test_wide_derivation_matches_third_byte_in_192_168(self):
        d = WideDerivation()
        assert d.root_for_subnet(Ipv4Network.parse("192.168.11.0/24")) == 11

    def test_wide_derivation_extends_beyond_256_racks(self):
        d = WideDerivation()
        a = d.root_for_subnet(Ipv4Network.parse("192.169.0.0/24"))
        b = d.root_for_subnet(Ipv4Network.parse("192.169.1.0/24"))
        assert a != b
        assert a > 255  # outside the third-byte namespace

    def test_wide_derivation_address_subnet_consistent(self):
        d = WideDerivation()
        assert (d.root_for_address(Ipv4Address.parse("192.169.5.7"))
                == d.root_for_subnet(Ipv4Network.parse("192.169.5.0/24")))

    def test_wide_derivation_inverts_rack_addressing_over_the_whole_pool(self):
        """Every seed the rack pool admits — 1 .. 192.255.255.0/24 — maps
        to a subnet whose derived root, and whose hosts' derived root, is
        that seed again.  Seeds 256-511 once landed in 192.170.x, read
        back as 512+, and no fabric above 122 PoDs could ever be
        ``ready()``."""
        d = WideDerivation()
        last = (255 - 168 + 1) * 256 - 1
        for seed in range(1, last + 1):
            subnet = rack_subnet_for(seed)
            assert d.root_for_subnet(subnet) == seed, seed
            assert d.root_for_address(subnet.host(seed % 250 + 1)) == seed
        assert rack_subnet_for(256) == Ipv4Network.parse("192.169.0.0/24")
        with pytest.raises(ValueError, match="exhausted"):
            rack_subnet_for(last + 1)
