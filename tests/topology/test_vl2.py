"""VL2 plugin: structure, invariants, and protocol behaviour."""

from __future__ import annotations

import pytest

from repro.harness.experiments import build_and_converge
from repro.harness.oracle import check_all_pairs
from repro.topology import (
    TIER_AGG,
    TIER_TOP,
    TIER_TOR,
    build_topology,
    get_topology,
    validate_topology,
)


def _build(**overrides):
    return build_topology(get_topology("vl2").spec(**overrides))


def test_default_build_validates():
    topo = _build()
    validate_topology(topo)
    # 2 pairs x (2 ToR + 2 agg) + 2 intermediates
    assert len(topo.routers()) == 10
    assert len(topo.all_tors()) == 4
    assert len(topo.all_tops()) == 2
    assert not topo.all_supers()


def test_complete_agg_intermediate_bipartite():
    """The wiring that makes VL2 not-a-folded-Clos: every aggregation
    reaches every intermediate (no plane restriction)."""
    topo = _build(num_pairs=3, ints=4)
    validate_topology(topo)
    ints = set(topo.all_tops())
    for agg in topo.all_aggs():
        peers = {iface.peer().node.name
                 for iface in topo.node(agg).interfaces.values()
                 if iface.peer() is not None
                 and iface.peer().node.tier == TIER_TOP}
        assert peers == ints


def test_tors_dual_homed_to_their_pair_only():
    topo = _build()
    for pair_idx, pair_tors in enumerate(topo.tors[0]):
        pair_aggs = set(topo.aggs[0][pair_idx])
        for tor in pair_tors:
            uplinks = {iface.peer().node.name
                       for iface in topo.node(tor).interfaces.values()
                       if iface.peer() is not None
                       and iface.peer().node.tier == TIER_AGG}
            assert uplinks == pair_aggs


def test_tiers_and_ports():
    topo = _build()
    assert topo.node(topo.all_tors()[0]).tier == TIER_TOR
    assert topo.node(topo.all_aggs()[0]).tier == TIER_AGG
    assert topo.node(topo.all_tops()[0]).tier == TIER_TOP
    agg = topo.all_aggs()[0]
    # downlinks created before uplinks (MR-MTP reads port numbers)
    assert topo.fabric_ports(agg, up=False) == ["eth1", "eth2"]
    assert topo.fabric_ports(agg, up=True) == ["eth3", "eth4"]


def test_failure_cases_reference_real_links():
    topo = _build()
    cases = topo.failure_cases()
    assert set(cases) == {"TC1", "TC2", "TC3", "TC4"}
    # TC3/TC4 sit on the agg-intermediate link, the valiant-spread edge
    assert cases["TC3"].node in topo.all_aggs()
    assert cases["TC3"].peer_node in topo.all_tops()
    assert cases["TC4"].node == cases["TC3"].peer_node


def test_invalid_params_rejected():
    with pytest.raises(ValueError, match="ints must be >= 1"):
        _build(ints=0)
    with pytest.raises(ValueError, match="unknown vl2 parameter"):
        get_topology("vl2").spec(planes=2)


@pytest.mark.parametrize("stack", ["mtp", "bgp-bfd"])
def test_stacks_converge_and_route(stack):
    """MR-MTP's assumptions survive on VL2: strict tiers mean VID
    derivation and up/down forwarding work, and BGP routes it too."""
    world, topo, deployment = build_and_converge("vl2", stack, seed=0)
    checked, unreachable = check_all_pairs(deployment, topo)
    assert checked == 12  # 4 ToRs, ordered pairs
    assert unreachable == []
