"""Recursive-DCN plugin: structure, recursion, and the MR-MTP limits.

The most important test here is the *negative* one:
:func:`test_mtp_refuses_a_topless_fabric` pins the paper-scoped finding
that MR-MTP cannot route a fabric with no top tier: every cross-cell
pair blackholes, so the converge refuses rather than report ready.  See
EXPERIMENTS.md ("Beyond strict Clos").
"""

from __future__ import annotations

from math import comb

import pytest

from repro.harness.convergence import QuiescenceTimeout, converge_from_cold
from repro.harness.experiments import build_and_converge
from repro.harness.oracle import check_all_pairs
from repro.net.world import World
from repro.sim.units import SECOND
from repro.stacks import get_stack, resolve_spec
from repro.topology import (
    TIER_AGG,
    TIER_TOR,
    build_topology,
    get_topology,
    validate_topology,
)


def _build(**overrides):
    return build_topology(get_topology("dcell").spec(**overrides))


def test_default_build_validates():
    topo = _build()
    validate_topology(topo)
    # 3 cells x (2 ToR + 2 proxies), no tier above the proxies
    assert len(topo.routers()) == 12
    assert len(topo.all_tors()) == 6
    assert len(topo.all_aggs()) == 6
    assert topo.all_tops() == []
    assert topo.all_supers() == []


@pytest.mark.parametrize("cells,proxies", [(2, 1), (3, 2), (4, 2), (5, 3)])
def test_level1_complete_graph_over_cells(cells, proxies):
    topo = _build(cells=cells, proxies_per_cell=proxies)
    validate_topology(topo)
    assert len(topo.cross_links) == comb(cells, 2)


def test_level2_recursion_over_groups():
    """groups > 1 applies the same composition rule one level up: the
    groups themselves form a complete graph."""
    topo = _build(groups=3, cells=2)
    validate_topology(topo)
    # per group: C(2,2)=1 level-1 link; across groups: C(3,2) level-2
    assert len(topo.cross_links) == 3 * 1 + comb(3, 2)
    assert len(topo.all_tors()) == 12


def test_fabric_ports_override_defines_up_as_out_of_cell():
    """Same-tier cross links would be invisible to tier comparison; the
    override is what keeps ``agg[j].uplink[k]`` targets meaningful."""
    topo = _build()
    proxy = topo.aggs[0][0][0]
    up = topo.fabric_ports(proxy, up=True)
    assert len(up) == 1
    peer = topo.node(proxy).interfaces[up[0]].peer().node
    assert peer.tier == TIER_AGG  # same tier: a cross-cell link
    # downlinks are the in-cell ToR-facing ports, in creation order
    down = topo.fabric_ports(proxy, up=False)
    assert down == ["eth1", "eth2"]
    # ToRs keep the tier-comparison meaning
    tor = topo.tors[0][0][0]
    assert topo.fabric_ports(tor, up=True) == ["eth1", "eth2"]
    assert topo.node(tor).tier == TIER_TOR


def test_failure_cases_cover_the_cross_cell_link():
    topo = _build()
    cases = topo.failure_cases()
    assert set(cases) == {"TC1", "TC2", "TC3", "TC4"}
    near, far = cases["TC3"], cases["TC4"]
    assert near.node in topo.all_aggs() and far.node in topo.all_aggs()
    assert near.peer_node == far.node and far.peer_node == near.node


def test_invalid_params_rejected():
    with pytest.raises(ValueError, match="cells must be >= 1"):
        _build(cells=0)
    with pytest.raises(ValueError, match="unknown dcell parameter"):
        get_topology("dcell").spec(levels=3)


def test_bgp_routes_the_whole_fabric():
    """With per-proxy ASNs (the RFC 7938 departure rfc7938_asn_plan
    makes for top-less fabrics), BGP reaches every rack pair."""
    world, topo, deployment = build_and_converge("dcell", "bgp-bfd", seed=0)
    checked, unreachable = check_all_pairs(deployment, topo)
    assert checked == 30  # 6 ToRs, ordered pairs
    assert unreachable == []


@pytest.mark.parametrize("stack", ["mtp", "mtp-spray", "mtp-adaptive",
                                   "mtp-gr"])
def test_mtp_refuses_a_topless_fabric(stack):
    """The headline negative result: MR-MTP's tier-monotone trees form
    no adjacency over same-tier links, so no cross-cell forwarding state
    ever exists.  The converge refuses instead of reporting ready, and
    the fabric it leaves behind shows why: every cross-cell pair drops,
    while each cell, itself a 2-tier Clos, works."""
    world = World(seed=0)
    topo = build_topology("dcell", world=world)
    spec = resolve_spec(stack)
    deployment = get_stack(spec.name).build(topo, spec)
    deployment.start()
    with pytest.raises(QuiescenceTimeout):
        converge_from_cold(world, deployment, max_time_us=60 * SECOND)
    assert not deployment.ready()
    checked, unreachable = check_all_pairs(deployment, topo)
    assert checked == 30
    cell_of = {t: i for i, cell in enumerate(topo.tors[0]) for t in cell}
    cross = [(a, b) for a, b, _ in unreachable if cell_of[a] != cell_of[b]]
    intra = [(a, b) for a, b, _ in unreachable if cell_of[a] == cell_of[b]]
    assert intra == []        # each cell is a working 2-tier Clos
    assert len(cross) == 24   # every cross-cell ordered pair blackholes
