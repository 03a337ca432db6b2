"""Oracle internals: the valley-free closures on hand-built fabrics."""

from __future__ import annotations

import pytest

from repro.harness.oracle import (
    _down_closure,
    _up_closure,
    alive_fabric_graph,
    oracle_reachable,
)
from repro.net.world import World
from repro.topology.clos import build_folded_clos, two_pod_params


@pytest.fixture
def topo():
    world = World(seed=3)
    return build_folded_clos(two_pod_params(), world=world)


def test_graph_excludes_server_links(topo):
    graph = alive_fabric_graph(topo)
    assert set(graph.tier) == set(topo.routers())
    # 16 fabric links, both directions
    assert sum(map(len, graph.succ.values())) == 32
    assert sum(map(len, graph.pred.values())) == 32


def test_up_closure_is_tier_monotone(topo):
    graph = alive_fabric_graph(topo)
    tor = topo.tors[0][0][0]
    closure = _up_closure(graph, tor)
    # the ToR, its two aggs, and their four plane tops
    assert len(closure) == 7
    assert tor in closure
    assert all(graph.tier[n] >= 1 for n in closure)
    # no other ToRs (that would require a down edge)
    assert sum(1 for n in closure if graph.tier[n] == 1) == 1


def test_down_closure_mirrors_up(topo):
    graph = alive_fabric_graph(topo)
    tor = topo.tors[0][1][1]
    closure = _down_closure(graph, tor)
    assert len(closure) == 7


def test_one_sided_failure_removes_both_edge_directions(topo):
    case = topo.failure_cases()["TC1"]
    topo.node(case.node).interfaces[case.interface].set_admin(False)
    graph = alive_fabric_graph(topo)
    assert case.peer_node not in graph.succ[case.node]
    assert case.node not in graph.succ[case.peer_node]
    assert case.node not in graph.pred[case.peer_node]
    assert case.peer_node not in graph.pred[case.node]


def test_reachability_via_shared_top(topo):
    # cut both plane-1 agg uplinks of pod 1: plane 2 still connects
    agg = topo.aggs[0][0][0]
    for iface in list(topo.node(agg).interfaces.values()):
        peer = iface.peer()
        if peer is not None and peer.node.tier == 3:
            iface.set_admin(False)
    assert oracle_reachable(topo, topo.tors[0][0][0], topo.tors[0][1][0])


def test_intra_pod_reachability_needs_only_an_agg(topo):
    # cut every agg-top link: pods are isolated from each other but
    # intra-pod pairs still reach via their aggs
    for link in topo.world.links:
        tiers = {link.end_a.node.tier, link.end_b.node.tier}
        if tiers == {2, 3}:
            link.end_a.set_admin(False)
    assert oracle_reachable(topo, topo.tors[0][0][0], topo.tors[0][0][1])
    assert not oracle_reachable(topo, topo.tors[0][0][0], topo.tors[0][1][0])
