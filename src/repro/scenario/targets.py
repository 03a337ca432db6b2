"""Symbolic scenario targets, resolved against a built topology.

Grammar (all expressions are strings inside scenario JSON):

* node targets —
  ``tor[i]`` / ``agg[i]`` / ``top[i]`` (flat index over the whole
  fabric), ``tor[p][t]`` / ``agg[p][a]`` / ``top[plane][k]`` (per-pod /
  per-plane), ``any-tor`` / ``any-agg`` / ``any-spine`` (a top spine) /
  ``any-router``, or a literal node name such as ``L-1-1``;
* interface targets — ``<node>.uplink[j]`` / ``<node>.downlink[j]``
  (fabric-facing ports in creation order; ``j`` may be ``any``),
  ``<node>.iface[ethN]`` (a named port), or ``case:TC1`` (the paper's
  failure points: the administratively-downed side);
* link targets — ``<node>--<node>`` (both endpoints named) or any
  interface target (the link behind that port);
* endpoint targets (traffic) — ``server:<node>`` (the first server of
  that ToR) or a literal host name such as ``H-L-1-1-1``.

``any-*`` picks (and ``uplink[any]`` indexes) deterministically from the
world's seeded ``"scenario-targets"`` RNG stream, so the same scenario
and seed always expand to the same concrete fabric elements.  Each
distinct expression is resolved once per run and then reused, which lets
``node_crash "any-agg"`` and a later ``node_restart "any-agg"`` hit the
*same* randomly chosen device.

Unresolvable expressions raise the harness's
:class:`~repro.harness.failures.UnknownTargetError` up front, before any
simulation time is spent.

Three campaigns also read concrete targets off a built fabric:
:func:`fabric_failure_points` (the robustness sweep's grid),
:func:`gray_link` (the chaos grid's impaired link) and
:func:`loss_racks` (the packet-loss flow's racks).
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass

from repro.harness.failures import UnknownTargetError
from repro.harness.oracle import alive_fabric_graph
from repro.topology import TIER_SERVER, Topology

RNG_STREAM = "scenario-targets"

_INDEXED = re.compile(r"^(tor|agg|top)((?:\[\d+\]){1,2})$")
_PORT = re.compile(r"^(?P<node>.+)\.(?P<kind>uplink|downlink|iface)"
                   r"\[(?P<index>any|\w+)\]$")
_ANY = {"any-tor": "tor", "any-agg": "agg", "any-spine": "top",
        "any-router": "router"}


class TargetResolver:
    """Resolves symbolic expressions against one built fabric, memoizing
    per expression so repeated mentions agree with each other."""

    def __init__(self, topo: Topology) -> None:
        self.topo = topo
        self.rng = topo.world.rng.stream(RNG_STREAM)
        self._nodes: dict[str, str] = {}
        self._ifaces: dict[str, tuple[str, str]] = {}

    # ------------------------------------------------------------------
    # node targets
    # ------------------------------------------------------------------
    def node(self, expr: str) -> str:
        cached = self._nodes.get(expr)
        if cached is None:
            cached = self._nodes[expr] = self._resolve_node(expr)
        return cached

    def _resolve_node(self, expr: str) -> str:
        pools = {"tor": self.topo.all_tors(), "agg": self.topo.all_aggs(),
                 "top": self.topo.all_tops(),
                 "router": self.topo.routers()}
        kind = _ANY.get(expr)
        if kind is not None:
            pool = pools[kind]
            return pool[int(self.rng.integers(len(pool)))]
        match = _INDEXED.match(expr)
        if match:
            kind, raw = match.group(1), match.group(2)
            indices = [int(i) for i in re.findall(r"\d+", raw)]
            try:
                if len(indices) == 1:
                    return pools[kind][indices[0]]
                grouped = {"tor": self.topo.tors, "agg": self.topo.aggs,
                           "top": self.topo.tops}[kind][0]
                return grouped[indices[0]][indices[1]]
            except IndexError:
                raise UnknownTargetError(
                    f"target {expr!r} is out of range for this fabric "
                    f"({len(pools[kind])} {kind}s)") from None
        if expr in self.topo.world.nodes:
            return expr
        raise UnknownTargetError(
            f"cannot resolve node target {expr!r}: not an index "
            f"(tor[i], agg[p][a]...), an any-* choice, or a node name")

    # ------------------------------------------------------------------
    # interface targets
    # ------------------------------------------------------------------
    def interface(self, expr: str) -> tuple[str, str]:
        cached = self._ifaces.get(expr)
        if cached is None:
            cached = self._ifaces[expr] = self._resolve_interface(expr)
        return cached

    def _resolve_interface(self, expr: str) -> tuple[str, str]:
        if expr.startswith("case:"):
            cases = self.topo.failure_cases()
            name = expr[len("case:"):]
            if name not in cases:
                raise UnknownTargetError(
                    f"unknown failure case {name!r}; available: "
                    f"{', '.join(cases)}")
            case = cases[name]
            return case.node, case.interface
        match = _PORT.match(expr)
        if not match:
            raise UnknownTargetError(
                f"cannot resolve interface target {expr!r}: expected "
                f"case:TCn, <node>.uplink[j], <node>.downlink[j] or "
                f"<node>.iface[name]")
        node_name = self.node(match.group("node"))
        node = self.topo.node(node_name)
        kind, index = match.group("kind"), match.group("index")
        if kind == "iface":
            if index not in node.interfaces:
                raise UnknownTargetError(
                    f"node {node_name} has no interface {index!r}; has: "
                    f"{', '.join(node.interfaces)}")
            return node_name, index
        ports = self._fabric_ports(node_name, up=(kind == "uplink"))
        if not ports:
            raise UnknownTargetError(
                f"node {node_name} has no {kind}s")
        if index == "any":
            return node_name, ports[int(self.rng.integers(len(ports)))]
        j = int(index) if index.isdigit() else None
        if j is None or j >= len(ports):
            raise UnknownTargetError(
                f"{expr!r}: {node_name} has {len(ports)} {kind}(s), "
                f"indices 0..{len(ports) - 1} or 'any'")
        return node_name, ports[j]

    def _fabric_ports(self, node_name: str, up: bool) -> list[str]:
        # delegate to the topology's own notion of up/down: strictly
        # tiered fabrics compare tiers, recursively-defined ones treat
        # same-tier cross links as "up" (out of the cell)
        return self.topo.fabric_ports(node_name, up)

    # ------------------------------------------------------------------
    # link targets
    # ------------------------------------------------------------------
    def link(self, expr: str) -> tuple[str, str]:
        if "--" in expr:
            left, _, right = expr.partition("--")
            node_a, node_b = self.node(left.strip()), self.node(right.strip())
            if self.topo.world.find_link(node_a, node_b) is None:
                raise UnknownTargetError(
                    f"link target {expr!r}: no link between {node_a} "
                    f"and {node_b}")
            return node_a, node_b
        node_name, iface_name = self.interface(expr)
        peer = self.topo.node(node_name).interfaces[iface_name].peer()
        if peer is None:
            raise UnknownTargetError(
                f"link target {expr!r}: {node_name}:{iface_name} is "
                f"not cabled")
        return node_name, peer.node.name

    # ------------------------------------------------------------------
    # traffic endpoints
    # ------------------------------------------------------------------
    def endpoint(self, expr: str) -> str:
        if expr.startswith("server:"):
            tor = self.node(expr[len("server:"):])
            servers = self.topo.servers.get(tor, ())
            if not servers:
                raise UnknownTargetError(
                    f"endpoint {expr!r}: {tor} has no servers "
                    f"(built with servers_per_rack=0?)")
            return servers[0]
        if expr in self.topo.world.nodes \
                and self.topo.node(expr).tier == TIER_SERVER:
            return expr
        raise UnknownTargetError(
            f"cannot resolve endpoint {expr!r}: expected server:<tor> "
            f"or a host name")


@dataclass(frozen=True)
class FailurePoint:
    node: str
    interface: str
    peer: str


def fabric_failure_points(topo: Topology) -> list[FailurePoint]:
    """Every router-to-router interface in the fabric."""
    points = []
    for name in topo.routers():
        node = topo.node(name)
        for iface in node.interfaces.values():
            peer = iface.peer()
            if peer is None or peer.node.tier == TIER_SERVER:
                continue
            points.append(FailurePoint(name, iface.name, peer.node.name))
    return points


def gray_link(topo: Topology) -> tuple[str, str, str]:
    """The canonical gray link: the first ToR's first fabric uplink, as
    ``(tor, interface, agg)``.

    Uses the topology's own ``fabric_ports`` hook, so families that
    redefine "up" (same-tier cross links) still nominate a sane link.
    """
    tor_name = topo.all_tors()[0]
    ports = topo.fabric_ports(tor_name, up=True)
    if not ports:
        raise RuntimeError(f"{tor_name} has no fabric uplink to impair")
    iface = topo.node(tor_name).interfaces[ports[0]]
    return tor_name, iface.name, iface.peer().node.name


def _hops_from(succ: dict[str, list[str]], origin: str) -> dict[str, int]:
    """Fewest hops from ``origin`` to every router over ``succ``."""
    hops, queue = {origin: 0}, deque([origin])
    while queue:
        name = queue.popleft()
        for peer in succ[name]:
            if peer not in hops:
                hops[peer] = hops[name] + 1
                queue.append(peer)
    return hops


def loss_racks(topo: Topology, case_name: str) -> tuple[str, str]:
    """The near and far racks of failure case ``case_name``'s
    packet-loss flow (Figs. 7/8), as ``(near ToR, far ToR)``.

    Near is the ToR end of the case's link or, if neither end is a ToR,
    the first ToR adjacent to its lower-tier end (either end when both
    share a tier).  Far is the last ToR, in ``all_tors()`` order, that
    has a fewest-hop path from near through the link: on any fabric a
    flow between the two can cross it."""
    case = topo.failure_cases()[case_name]
    graph = alive_fabric_graph(topo)
    a, b = case.node, case.peer_node
    low = min(graph.tier[a], graph.tier[b])
    beside = {a, b}.union(*(graph.succ[end] for end in (a, b)
                            if graph.tier[end] == low))
    tors = topo.all_tors()
    near = next(tor for tor in tors if tor in beside)
    from_near, from_a, from_b = (_hops_from(graph.succ, end)
                                 for end in (near, a, b))
    far = [tor for tor in tors if from_near[tor] == min(
        from_near[a] + 1 + from_b[tor], from_near[b] + 1 + from_a[tor])]
    return near, far[-1]
