"""Property tests: symbolic targets behave lawfully on EVERY registered
topology.

The contract the scenario engine relies on: any target expression either
resolves to a real fabric element or raises ``UnknownTargetError`` up
front — never a KeyError/IndexError mid-simulation, never a node that
does not exist.  Hypothesis drives the expression space over each
registered plugin (folded-Clos, VL2, the recursive DCN alike).
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.harness.failures import UnknownTargetError
from repro.scenario.targets import TargetResolver
from repro.topology import available_topologies, build_topology

_TOPOS = {name: build_topology(name, seed=0)
          for name in available_topologies()}


@pytest.fixture(params=sorted(_TOPOS))
def topo(request):
    return _TOPOS[request.param]


def _resolve_node(topo, expr):
    """Resolve, asserting the up-front contract on the way."""
    resolver = TargetResolver(topo)
    try:
        return resolver.node(expr)
    except UnknownTargetError:
        return None


@given(kind=st.sampled_from(["tor", "agg", "top"]),
       index=st.integers(min_value=0, max_value=40))
def test_indexed_node_targets_resolve_or_raise(topo, kind, index):
    pool = {"tor": topo.all_tors(), "agg": topo.all_aggs(),
            "top": topo.all_tops()}[kind]
    name = _resolve_node(topo, f"{kind}[{index}]")
    if index < len(pool):
        assert name == pool[index]
        assert topo.node(name) is not None
    else:
        assert name is None  # out of range raised up front


@given(expr=st.sampled_from(["any-tor", "any-agg", "any-router"]),
       seed_draws=st.integers(min_value=1, max_value=4))
def test_any_targets_resolve_to_real_routers(topo, expr, seed_draws):
    resolver = TargetResolver(topo)
    name = resolver.node(expr)
    assert name in topo.routers()
    # memoized: later mentions of the same expression agree
    for _ in range(seed_draws):
        assert resolver.node(expr) == name


@given(case=st.sampled_from(["TC1", "TC2", "TC3", "TC4", "TC9"]))
def test_case_targets_resolve_or_raise(topo, case):
    resolver = TargetResolver(topo)
    try:
        node, iface = resolver.interface(f"case:{case}")
    except UnknownTargetError:
        assert case not in topo.failure_cases()
        return
    expected = topo.failure_cases()[case]
    assert (node, iface) == (expected.node, expected.interface)
    assert iface in topo.node(node).interfaces


@given(agg_index=st.integers(min_value=0, max_value=12),
       port_index=st.integers(min_value=0, max_value=8),
       direction=st.sampled_from(["uplink", "downlink"]))
def test_port_targets_resolve_or_raise(topo, agg_index, port_index,
                                       direction):
    """``agg[i].uplink[j]`` must follow each topology's own up/down
    notion (same-tier cross links count as 'up' on the recursive DCN)."""
    aggs = topo.all_aggs()
    resolver = TargetResolver(topo)
    expr = f"agg[{agg_index}].{direction}[{port_index}]"
    try:
        node, iface = resolver.interface(expr)
    except UnknownTargetError:
        if agg_index < len(aggs):
            ports = topo.fabric_ports(aggs[agg_index],
                                      up=direction == "uplink")
            assert port_index >= len(ports)
        return
    assert node == aggs[agg_index]
    ports = topo.fabric_ports(node, up=direction == "uplink")
    assert iface == ports[port_index]


def test_every_topology_resolves_the_library_staples(topo):
    """The expressions the canonical scenario library actually uses must
    resolve on every registered fabric — this is what 'runnable under
    every scenario' means at the target layer."""
    resolver = TargetResolver(topo)
    for expr in ("tor[0]", "tor[3]", "agg[0]", "agg[0][1]", "any-agg",
                 "any-tor", "any-router"):
        assert resolver.node(expr) in topo.routers()
    for expr in ("agg[0].uplink[0]", "agg[0].uplink[any]",
                 "case:TC1", "case:TC4"):
        node, iface = resolver.interface(expr)
        assert iface in topo.node(node).interfaces
    link = resolver.link(f"{topo.all_tors()[0]}--{topo.all_aggs()[0]}")
    assert link is not None
    server = resolver.endpoint("server:tor[0]")
    assert server in topo.all_servers()
