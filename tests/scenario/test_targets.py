"""Symbolic target resolution: grammar coverage and deterministic
seeded expansion of the ``any-*`` / ``[any]`` choices."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.harness.failures import UnknownTargetError
from repro.scenario.targets import TargetResolver, loss_racks
from repro.topology import build_topology
from repro.topology.clos import (
    ClosParams,
    build_folded_clos,
    four_pod_params,
    two_pod_params,
)


@pytest.fixture
def resolver():
    return TargetResolver(build_folded_clos(four_pod_params(), seed=0))


# ----------------------------------------------------------------------
# grammar
# ----------------------------------------------------------------------
def test_indexed_node_targets(resolver):
    topo = resolver.topo
    assert resolver.node("tor[0]") == topo.all_tors()[0]
    assert resolver.node("agg[3]") == topo.all_aggs()[3]
    assert resolver.node("top[1]") == topo.all_tops()[1]
    # two-index form: pod-relative (plane-relative for tops)
    assert resolver.node("agg[1][0]") == topo.aggs[0][1][0]
    assert resolver.node("tor[0][1]") == topo.tors[0][0][1]


def test_literal_names_pass_through(resolver):
    name = resolver.topo.all_tors()[0]
    assert resolver.node(name) == name


def test_out_of_range_and_garbage_rejected(resolver):
    with pytest.raises(UnknownTargetError, match="out of range"):
        resolver.node("tor[999]")
    with pytest.raises(UnknownTargetError, match="cannot resolve node"):
        resolver.node("leaf[0]")
    with pytest.raises(UnknownTargetError, match="cannot resolve node"):
        resolver.node("tor[0")


def test_case_targets_match_failure_cases(resolver):
    cases = resolver.topo.failure_cases()
    for name, case in cases.items():
        assert resolver.interface(f"case:{name}") == (case.node,
                                                      case.interface)
    with pytest.raises(UnknownTargetError, match="unknown failure case"):
        resolver.interface("case:TC99")


def test_uplink_downlink_indexing(resolver):
    tor = resolver.topo.all_tors()[0]
    node_name, iface = resolver.interface("tor[0].uplink[1]")
    assert node_name == tor
    peer = resolver.topo.node(tor).interfaces[iface].peer()
    assert peer.node.tier > resolver.topo.node(tor).tier
    # downlinks of an agg face the ToR tier
    agg_name, down = resolver.interface("agg[0].downlink[0]")
    down_peer = resolver.topo.node(agg_name).interfaces[down].peer()
    assert down_peer.node.tier < resolver.topo.node(agg_name).tier
    with pytest.raises(UnknownTargetError, match="indices"):
        resolver.interface("tor[0].uplink[99]")


def test_named_iface_target(resolver):
    tor = resolver.topo.all_tors()[0]
    iface = next(iter(resolver.topo.node(tor).interfaces))
    assert resolver.interface(f"{tor}.iface[{iface}]") == (tor, iface)
    with pytest.raises(UnknownTargetError, match="no interface"):
        resolver.interface(f"{tor}.iface[eth999]")


def test_link_targets(resolver):
    a, b = resolver.link("tor[0]--agg[0]")
    assert resolver.topo.world.find_link(a, b) is not None
    # interface form resolves to the link behind the port
    a2, b2 = resolver.link("tor[0].uplink[0]")
    assert resolver.topo.world.find_link(a2, b2) is not None
    with pytest.raises(UnknownTargetError, match="no link"):
        resolver.link("tor[0]--tor[1]")


def test_server_endpoints(resolver):
    host = resolver.endpoint("server:tor[0]")
    assert host == resolver.topo.servers[resolver.topo.all_tors()[0]][0]
    assert resolver.endpoint(host) == host
    with pytest.raises(UnknownTargetError, match="cannot resolve endpoint"):
        resolver.endpoint("tor[0]")  # a router is not a traffic endpoint


def test_serverless_fabric_rejects_server_endpoint():
    topo = build_folded_clos(two_pod_params(servers_per_rack=0), seed=0)
    with pytest.raises(UnknownTargetError, match="no servers"):
        TargetResolver(topo).endpoint("server:tor[0]")


# ----------------------------------------------------------------------
# deterministic random expansion
# ----------------------------------------------------------------------
def test_any_choices_are_memoized_per_expression(resolver):
    first = resolver.node("any-agg")
    assert resolver.node("any-agg") == first  # crash + restart agree
    assert resolver.interface("agg[0].uplink[any]") == \
        resolver.interface("agg[0].uplink[any]")


def test_any_spine_is_a_top(resolver):
    assert resolver.node("any-spine") in resolver.topo.all_tops()


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_same_seed_expands_identically(seed):
    """The determinism contract: two fresh fabrics with the same seed
    resolve every symbolic expression to the same concrete targets."""
    expressions = ("any-agg", "any-tor", "any-spine", "any-router",
                   "agg[0].uplink[any]")
    expansions = []
    for _ in range(2):
        resolver = TargetResolver(
            build_folded_clos(four_pod_params(), seed=seed))
        expansions.append([
            resolver.node("any-agg"), resolver.node("any-tor"),
            resolver.node("any-spine"), resolver.node("any-router"),
            resolver.interface("agg[0].uplink[any]"),
        ])
    assert expansions[0] == expansions[1]
    assert len(expansions[0]) == len(expressions)


def test_resolution_order_matters_not_topology_build():
    """Resolver draws come from a dedicated named RNG stream, so two
    runs that resolve the same expressions in the same order agree even
    if other parts of the world consumed their own streams in between."""
    topo_a = build_folded_clos(four_pod_params(), seed=7)
    topo_b = build_folded_clos(four_pod_params(), seed=7)
    topo_b.world.rng.stream("unrelated-noise").uniform(0, 100)
    r_a, r_b = TargetResolver(topo_a), TargetResolver(topo_b)
    assert r_a.node("any-agg") == r_b.node("any-agg")
    assert r_a.interface("tor[1].uplink[any]") == \
        r_b.interface("tor[1].uplink[any]")


# ----------------------------------------------------------------------
# the packet-loss flow's racks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fabric,near,far", [
    (two_pod_params(), "L-1-1", "L-2-2"),
    (four_pod_params(), "L-1-1", "L-4-2"),
    ("vl2", "VL-1-1", "VL-2-2"),
    # the last rack, D-3-2, is reached from D-1-1 over the other cross
    # link: no fewest-hop path to it crosses a TC link
    ("dcell", "D-1-1", "D-2-2"),
    # the last rack of all, in zone 2, not zone 1's
    (ClosParams(num_pods=2, zones=2), "Z1-L-1-1", "Z2-L-2-2"),
], ids=["clos-2", "clos-4", "vl2", "dcell", "clos-2-zones"])
def test_loss_racks_sit_on_either_side_of_every_case_link(fabric, near, far):
    """Near is the rack beside the case's link, far the last rack a
    fewest-hop path from near through the link reaches: on Clos and VL2
    the paper's first and last racks, on every fabric a pair a flow
    between can cross the link."""
    topo = build_topology(fabric)
    for case in ("TC1", "TC2", "TC3", "TC4"):
        assert loss_racks(topo, case) == (near, far), case
