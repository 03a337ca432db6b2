"""BGP wire encoding: RFC 4271 byte layouts and round-trips."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.bgp.encoding import decode_message, encode_message
from repro.bgp.messages import (
    BgpKeepalive,
    BgpNotification,
    BgpOpen,
    BgpUpdate,
    PathAttributes,
)
from repro.stack.addresses import Ipv4Address, Ipv4Network


def ip(text):
    return Ipv4Address.parse(text)


def net(text):
    return Ipv4Network.parse(text)


def test_keepalive_is_19_bytes():
    """The header-only message: 16 marker + 2 length + 1 type."""
    blob = encode_message(BgpKeepalive())
    assert len(blob) == 19
    assert blob[:16] == b"\xff" * 16
    assert blob[18] == 4


def test_keepalive_roundtrip():
    assert isinstance(decode_message(encode_message(BgpKeepalive())), BgpKeepalive)


def test_open_is_45_bytes_with_frr_capabilities():
    msg = BgpOpen(asn=64512, hold_time_s=3, router_id=ip("10.0.0.1"))
    blob = encode_message(msg)
    assert len(blob) == 45
    decoded = decode_message(blob)
    assert decoded == msg


def test_open_with_4_octet_asn_uses_as_trans():
    msg = BgpOpen(asn=4_200_000_000, hold_time_s=9, router_id=ip("1.2.3.4"))
    blob = encode_message(msg)
    # 2-octet field carries AS_TRANS, capability carries the real ASN
    decoded = decode_message(blob)
    assert decoded.asn == 4_200_000_000


def test_withdraw_only_update_size():
    """19 header + 2 withdrawn-len + 4 (a /24) + 2 attr-len = 27."""
    msg = BgpUpdate(withdrawn=(net("192.168.11.0/24"),))
    assert len(encode_message(msg)) == 27


def test_advertisement_update_size_grows_with_as_path():
    attrs1 = PathAttributes(as_path=(64512,), next_hop=ip("172.16.0.1"))
    attrs2 = PathAttributes(as_path=(64512, 64513), next_hop=ip("172.16.0.1"))
    m1 = BgpUpdate(nlri=(net("192.168.11.0/24"),), attributes=attrs1)
    m2 = BgpUpdate(nlri=(net("192.168.11.0/24"),), attributes=attrs2)
    assert len(encode_message(m2)) - len(encode_message(m1)) == 4  # one 4-octet ASN


def test_update_roundtrip_mixed():
    attrs = PathAttributes(as_path=(65001, 64512, 65002),
                           next_hop=ip("172.16.0.9"))
    msg = BgpUpdate(
        withdrawn=(net("192.168.1.0/24"), net("10.0.0.0/8")),
        nlri=(net("192.168.2.0/24"), net("192.168.3.0/24")),
        attributes=attrs,
    )
    decoded = decode_message(encode_message(msg))
    assert decoded == msg


def test_update_roundtrip_empty_as_path():
    """Locally originated routes have an empty AS_PATH on iBGP-like hops;
    the attribute must encode and decode as empty."""
    attrs = PathAttributes(as_path=(), next_hop=ip("172.16.0.9"))
    msg = BgpUpdate(nlri=(net("192.168.2.0/24"),), attributes=attrs)
    decoded = decode_message(encode_message(msg))
    assert decoded.attributes.as_path == ()


def test_notification_roundtrip():
    msg = BgpNotification(error_code=4, error_subcode=0)
    blob = encode_message(msg)
    assert len(blob) == 21
    assert decode_message(blob) == msg


def test_update_content_validation():
    # a fully empty UPDATE is legal: the RFC 4724 End-of-RIB marker
    assert BgpUpdate().is_end_of_rib
    assert not BgpUpdate(withdrawn=(net("10.0.0.0/8"),)).is_end_of_rib
    with pytest.raises(ValueError):
        BgpUpdate(nlri=(net("10.0.0.0/8"),))  # NLRI without attributes
    with pytest.raises(ValueError):  # attributes without NLRI
        BgpUpdate(attributes=PathAttributes(as_path=(65001,),
                                            next_hop=ip("10.0.0.1")))


def test_decode_rejects_bad_marker():
    blob = bytearray(encode_message(BgpKeepalive()))
    blob[0] = 0
    with pytest.raises(ValueError):
        decode_message(bytes(blob))


def test_decode_rejects_bad_length():
    blob = encode_message(BgpKeepalive()) + b"x"
    with pytest.raises(ValueError):
        decode_message(blob)


def test_wire_size_property_matches_encoding():
    msg = BgpUpdate(withdrawn=(net("192.168.11.0/24"),))
    assert msg.wire_size == len(encode_message(msg))


@st.composite
def prefixes(draw):
    plen = draw(st.integers(min_value=8, max_value=32))
    value = draw(st.integers(min_value=0, max_value=(1 << 32) - 1))
    return Ipv4Network.of(Ipv4Address(value), plen)


@given(
    withdrawn=st.lists(prefixes(), max_size=5, unique=True),
    nlri=st.lists(prefixes(), min_size=1, max_size=5, unique=True),
    as_path=st.lists(st.integers(min_value=1, max_value=2**32 - 1), max_size=6),
    next_hop=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_update_roundtrip_property(withdrawn, nlri, as_path, next_hop):
    attrs = PathAttributes(as_path=tuple(as_path), next_hop=Ipv4Address(next_hop))
    msg = BgpUpdate(withdrawn=tuple(withdrawn), nlri=tuple(nlri), attributes=attrs)
    assert decode_message(encode_message(msg)) == msg


@given(
    asn=st.integers(min_value=1, max_value=2**32 - 1),
    hold=st.integers(min_value=0, max_value=65535),
    rid=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_open_roundtrip_property(asn, hold, rid):
    msg = BgpOpen(asn=asn, hold_time_s=hold, router_id=Ipv4Address(rid))
    assert decode_message(encode_message(msg)) == msg


# ----------------------------------------------------------------------
# wire_size is computed, not encoded: the encoder is its oracle
# ----------------------------------------------------------------------
_u32 = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def any_prefix(draw):
    """/0 ... /32, host bits cleared."""
    return Ipv4Network.of(Ipv4Address(draw(_u32)),
                          draw(st.integers(min_value=0, max_value=32)))


def prefix_tuples(min_size=0):
    return st.lists(any_prefix(), min_size=min_size, max_size=8).map(tuple)


# the one-octet AS_PATH attribute length holds 2 + 4n <= 255
path_attributes = st.builds(
    PathAttributes,
    as_path=st.lists(st.integers(min_value=1, max_value=2**32 - 1),
                     max_size=63).map(tuple),
    next_hop=st.builds(Ipv4Address, _u32),
    origin=st.integers(min_value=0, max_value=2),
)

bgp_messages = st.one_of(
    st.just(BgpKeepalive()),
    st.builds(BgpNotification,
              error_code=st.integers(min_value=0, max_value=255),
              error_subcode=st.integers(min_value=0, max_value=255)),
    st.builds(BgpOpen,
              asn=st.one_of(st.integers(min_value=1, max_value=65535),
                            st.integers(min_value=65536,
                                        max_value=2**32 - 1)),
              hold_time_s=st.integers(min_value=0, max_value=65535),
              router_id=st.builds(Ipv4Address, _u32)),
    st.just(BgpUpdate()),                                   # End-of-RIB
    st.builds(BgpUpdate, withdrawn=prefix_tuples(min_size=1),
              attributes=st.none() | path_attributes),
    st.builds(BgpUpdate, withdrawn=prefix_tuples(),         # advertise / mixed
              nlri=prefix_tuples(min_size=1), attributes=path_attributes),
)


@given(bgp_messages)
def test_wire_size_is_the_encoded_length(msg):
    blob = encode_message(msg)
    assert msg.wire_size == len(blob)
    decoded = decode_message(blob)
    assert decoded == msg
    assert decoded.wire_size == len(blob)


def test_fixed_format_sizes():
    """The constants the paper's Fig. 9 arithmetic rests on."""
    assert BgpKeepalive().wire_size == 19
    assert BgpNotification(BgpNotification.CEASE).wire_size == 21
    assert BgpOpen(asn=4_200_000_000, hold_time_s=9,
                   router_id=ip("1.2.3.4")).wire_size == 45
    assert BgpUpdate().wire_size == 23


def test_update_size_is_not_part_of_its_value():
    attrs = PathAttributes(as_path=(65001,), next_hop=ip("10.0.0.1"))
    a = BgpUpdate(nlri=(net("10.1.0.0/16"),), attributes=attrs)
    b = BgpUpdate(nlri=(net("10.1.0.0/16"),), attributes=attrs)
    assert a == b and hash(a) == hash(b)
    assert "wire_size" not in repr(a)
