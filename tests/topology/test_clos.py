"""Folded-Clos builder: the paper's topologies and larger ones."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.topology.clos import (
    ClosParams,
    build_folded_clos,
    four_pod_params,
    two_pod_params,
)
from repro.topology.validate import validate_topology


def test_two_pod_matches_paper_counts():
    topo = build_folded_clos(two_pod_params())
    assert len(topo.all_tors()) == 4
    assert len(topo.all_aggs()) == 4
    assert len(topo.all_tops()) == 4
    assert len(topo.routers()) == 12  # the paper's 2-PoD router count
    assert len(topo.all_servers()) == 4
    validate_topology(topo)


def test_four_pod_matches_paper_counts():
    topo = build_folded_clos(four_pod_params())
    assert len(topo.routers()) == 20  # "15 of the 20 routers" (paper VII.B)
    assert len(topo.all_tors()) == 8
    assert len(topo.all_aggs()) == 8
    assert len(topo.all_tops()) == 4
    validate_topology(topo)


def test_first_rack_subnet_is_192_168_11(paper_vid=11):
    topo = build_folded_clos(two_pod_params())
    first_tor = topo.tors[0][0][0]
    assert str(topo.rack_subnet[first_tor]) == "192.168.11.0/24"
    assert topo.tor_vid_seed[first_tor] == paper_vid


def test_rack_subnets_sequential_vids():
    topo = build_folded_clos(four_pod_params())
    seeds = [topo.tor_vid_seed[t] for t in topo.all_tors()]
    assert seeds == list(range(11, 19))


def test_plane_wiring_matches_paper_fig2():
    """S1_1 (first agg) reaches tops of plane 1 only; S1_2 plane 2 only."""
    topo = build_folded_clos(two_pod_params())
    agg1, agg2 = topo.aggs[0][0]
    plane1, plane2 = topo.tops[0]

    def uplink_names(agg):
        node = topo.node(agg)
        return {
            iface.peer().node.name
            for iface in node.interfaces.values()
            if iface.peer() and iface.peer().node.tier == 3
        }

    assert uplink_names(agg1) == set(plane1)
    assert uplink_names(agg2) == set(plane2)


def test_tor_uplink_port_numbers_are_agg_ordered():
    """MR-MTP child VIDs append the parent's port number, so ToR port 1
    must face the first agg, port 2 the second."""
    topo = build_folded_clos(two_pod_params())
    tor = topo.node(topo.tors[0][0][0])
    agg_names = topo.aggs[0][0]
    assert tor.interfaces["eth1"].peer().node.name == agg_names[0]
    assert tor.interfaces["eth2"].peer().node.name == agg_names[1]


def test_failure_cases_are_the_paper_test_points():
    topo = build_folded_clos(two_pod_params())
    cases = topo.failure_cases()
    assert set(cases) == {"TC1", "TC2", "TC3", "TC4"}
    tor = topo.tors[0][0][0]
    agg = topo.aggs[0][0][0]
    top = topo.tops[0][0][0]
    assert cases["TC1"].node == tor and cases["TC1"].peer_node == agg
    assert cases["TC2"].node == agg and cases["TC2"].peer_node == tor
    assert cases["TC3"].node == agg and cases["TC3"].peer_node == top
    assert cases["TC4"].node == top and cases["TC4"].peer_node == agg
    # TC1/TC2 are the two ends of the same link; likewise TC3/TC4
    link_a = topo.world.find_link(tor, agg)
    assert link_a is not None
    assert topo.node(cases["TC1"].node).interfaces[cases["TC1"].interface].link is link_a


def test_server_addressing_and_gateway():
    topo = build_folded_clos(two_pod_params())
    tor = topo.tors[0][0][0]
    host = topo.first_server_of(tor)
    assert str(topo.server_address(host)) == "192.168.11.1"
    assert str(topo.server_gateway[host]) == "192.168.11.254"


def test_multi_server_racks_get_distinct_gateways():
    topo = build_folded_clos(ClosParams(num_pods=2, servers_per_rack=3))
    validate_topology(topo)
    tor = topo.tors[0][0][0]
    gws = [str(topo.server_gateway[h]) for h in topo.servers[tor]]
    assert gws == ["192.168.11.254", "192.168.11.253", "192.168.11.252"]


def test_zero_server_fabric_keeps_rack_port():
    topo = build_folded_clos(ClosParams(num_pods=2, servers_per_rack=0))
    validate_topology(topo)
    tor = topo.tors[0][0][0]
    port = topo.rack_port[tor]
    iface = topo.node(tor).interfaces[port]
    assert iface.network == topo.rack_subnet[tor]


def test_four_tier_fabric_with_zones():
    params = ClosParams(num_pods=2, zones=2, supers_per_group=2)
    topo = build_folded_clos(params)
    validate_topology(topo)
    assert params.num_tiers == 4
    assert len(topo.all_supers()) == 2 * 2 * 2  # planes*tops_per_plane*width
    assert len(topo.routers()) == 2 * 12 + 8


def test_p2p_addressing_is_consistent():
    topo = build_folded_clos(two_pod_params())
    for link in topo.world.links:
        if link.end_a.node.tier == 0 or link.end_b.node.tier == 0:
            continue
        assert link.end_a.network == link.end_b.network
        assert link.end_a.address != link.end_b.address


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        ClosParams(num_pods=0)
    with pytest.raises(ValueError):
        ClosParams(servers_per_rack=-1)


def test_describe_mentions_counts():
    topo = build_folded_clos(two_pod_params())
    text = topo.describe()
    assert "2 PoD" in text and "12" in text


@given(
    pods=st.integers(min_value=1, max_value=5),
    tors=st.integers(min_value=1, max_value=3),
    aggs=st.integers(min_value=1, max_value=3),
    tops=st.integers(min_value=1, max_value=3),
)
def test_arbitrary_shapes_validate(pods, tors, aggs, tops):
    params = ClosParams(num_pods=pods, tors_per_pod=tors,
                        aggs_per_pod=aggs, tops_per_plane=tops)
    topo = build_folded_clos(params)
    validate_topology(topo)
    assert len(topo.routers()) == params.num_routers
