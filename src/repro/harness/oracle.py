"""Ground-truth reachability oracle.

Computes, from the physical topology and the set of alive links alone,
which rack pairs *should* be able to communicate under valley-free
(up*-then-down*) Clos routing — the routing discipline both MR-MTP and
RFC 7938 BGP implement.  Comparing the oracle against what the deployed
protocol actually forwards catches both failure modes:

* **blackholes** — the oracle says reachable, the protocol drops;
* **over-pruning** — same symptom, caused by marks/withdrawals that
  removed more state than the failure justified.

(The reverse disagreement cannot occur: a completed path trace is a
constructive proof of reachability.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.topology import TIER_SERVER, Topology
from repro.harness.pathtrace import trace_path


@dataclass
class FabricGraph:
    """Alive fabric adjacency, insertion-ordered: ``tier[n]`` for every
    router, ``succ[u]``/``pred[v]`` for every edge u->v."""

    tier: dict[str, int]
    succ: dict[str, list[str]]
    pred: dict[str, list[str]]


def alive_fabric_graph(topo: Topology) -> FabricGraph:
    """Directed graph of alive fabric links: an edge u->v exists when a
    frame can actually travel from u to v (u's interface can transmit
    and v's can receive — the paper's one-sided failure semantics)."""
    tier = {name: topo.node(name).tier for name in topo.routers()}
    graph = FabricGraph(tier, {name: [] for name in tier},
                        {name: [] for name in tier})
    for link in topo.world.links:
        a, b = link.end_a, link.end_b
        if a.node.tier == TIER_SERVER or b.node.tier == TIER_SERVER:
            continue
        if a.admin_up and b.admin_up:
            for u, v in ((a.node.name, b.node.name),
                         (b.node.name, a.node.name)):
                graph.succ[u].append(v)
                graph.pred[v].append(u)
    return graph


def _climb(tier: dict[str, int], step: dict[str, list[str]],
           start: str) -> set[str]:
    """Nodes reached from ``start`` by following ``step`` edges to
    strictly higher tiers."""
    closure = {start}
    frontier = [start]
    while frontier:
        here = frontier.pop()
        for nxt in step[here]:
            if tier[nxt] > tier[here] and nxt not in closure:
                closure.add(nxt)
                frontier.append(nxt)
    return closure


def _up_closure(graph: FabricGraph, start: str) -> set[str]:
    """Nodes reachable from ``start`` along strictly tier-increasing
    alive edges (the 'up' phase of a valley-free path)."""
    return _climb(graph.tier, graph.succ, start)


def _down_closure(graph: FabricGraph, start: str) -> set[str]:
    """Nodes that can reach ``start`` along strictly tier-decreasing
    alive edges (the 'down' phase, walked backwards)."""
    return _climb(graph.tier, graph.pred, start)


def oracle_reachable(topo: Topology, src_tor: str, dst_tor: str) -> bool:
    """True when a valley-free path src_tor -> dst_tor exists over the
    alive links: some node lies both in src's up-closure and in the set
    of nodes that can descend to dst."""
    graph = alive_fabric_graph(topo)
    if src_tor not in graph.tier or dst_tor not in graph.tier:
        return False
    return bool(_up_closure(graph, src_tor) & _down_closure(graph, dst_tor))


@dataclass
class OracleDisagreement:
    src_tor: str
    dst_tor: str
    oracle_reachable: bool
    protocol_reachable: bool
    detail: str


def compare_with_oracle(
    deployment,
    topo: Topology,
    probe_ports: Iterable[int] = (40000, 40001, 40002, 40003),
) -> list[OracleDisagreement]:
    """Check every rack pair against the oracle; return disagreements.

    The protocol is *required* to deliver whenever the oracle says a
    valley-free path exists, and must not complete a trace when none
    does (the latter would mean the trace walked a valley).
    """
    disagreements = []
    tors = topo.all_tors()
    for src_tor in tors:
        for dst_tor in tors:
            if src_tor == dst_tor:
                continue
            expected = oracle_reachable(topo, src_tor, dst_tor)
            src = topo.first_server_of(src_tor)
            dst = topo.first_server_of(dst_tor)
            delivered = 0
            first_error = ""
            for port in probe_ports:
                try:
                    trace_path(deployment, src, dst, src_port=port)
                    delivered += 1
                except RuntimeError as exc:
                    if not first_error:
                        first_error = str(exc)
            actual = delivered == len(tuple(probe_ports))
            if actual != expected:
                disagreements.append(OracleDisagreement(
                    src_tor, dst_tor, expected, actual,
                    first_error or f"{delivered} of probes delivered",
                ))
    return disagreements
