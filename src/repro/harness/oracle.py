"""Ground-truth reachability oracle and the exact rack-pair verdict.

The oracle computes, from the physical topology and the set of alive
links alone, which rack pairs *should* be able to communicate under
valley-free (up*-then-down*) Clos routing — the routing discipline both
MR-MTP and RFC 7938 BGP implement.  :func:`pair_verdicts` judges what
the deployed protocol actually forwards, over *every* ECMP choice its
live candidate sets offer (:func:`~repro.harness.pathtrace.live_hops`),
and sets the oracle's answer beside it for every ordered rack pair:

* **loop** — some choice sequence from the source ToR re-enters a
  ``(node, ingress port)`` state it already visited: a packet taking
  those hashes circulates until TTL death;
* **drop** — some choice sequence reaches a state that drops (no
  candidate port, a downed egress, an uncabled port, or a dead far
  end): a blackhole when the oracle connects the pair, correct
  behaviour when it does not;
* **connected** — the oracle's verdict.

The ``reachability`` op (:func:`check_all_pairs`), the invariant
monitor and the tests (:func:`disagreements`) filter that one result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.topology import TIER_SERVER, Topology
from repro.harness.pathtrace import live_hops


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


class PairVerdict(NamedTuple):
    """One ordered rack pair, judged over every ECMP choice."""

    loops: bool       # some choice sequence circulates
    drops: bool       # some choice sequence is dropped
    connected: bool   # the valley-free oracle connects the pair

    @property
    def delivers(self) -> bool:
        return not (self.loops or self.drops)


def pair_verdicts(deployment, topo: Topology
                  ) -> dict[tuple[str, str], PairVerdict]:
    """``(src_tor, dst_tor) -> PairVerdict`` for every ordered rack
    pair of ``topo``, the deployment's fabric, source-major."""
    tors = topo.all_tors()
    graph = alive_fabric_graph(topo)
    up = {t: _up_closure(graph, t) for t in tors}
    down = {t: _down_closure(graph, t) for t in tors}
    walks = {dst: _walk(deployment, dst, tors) for dst in tors}
    return {(src, dst): PairVerdict((src, None) in walks[dst][0],
                                    (src, None) in walks[dst][1],
                                    not up[src].isdisjoint(down[dst]))
            for src in tors for dst in tors if src != dst}


def check_all_pairs(deployment, topo: Topology
                    ) -> tuple[int, list[tuple[str, str, str]]]:
    """The pairs checked, and ``(src_tor, dst_tor, reason)`` for each
    pair some ECMP choice does not deliver, ``reason`` ``"loop"`` or
    ``"drop"``."""
    verdicts = pair_verdicts(deployment, topo)
    return len(verdicts), [(src, dst, "loop" if verdict.loops else "drop")
                           for (src, dst), verdict in verdicts.items()
                           if not verdict.delivers]


def disagreements(deployment, topo: Topology) -> list[tuple[str, str]]:
    """The rack pairs whose exact verdict differs from the oracle's."""
    return [pair for pair, verdict in pair_verdicts(deployment, topo).items()
            if verdict.delivers != verdict.connected]


def _walk(deployment, dst: str, tors: list[str]):
    """Explore the multipath state graph toward ``dst``: states are
    ``(node, ingress iface)``, edges are every live ECMP candidate.
    Returns the state sets that can reach a cycle / a drop."""
    starts = [(src, None) for src in tors if src != dst]
    adj: dict[tuple, list[tuple]] = {}
    preds: dict[tuple, list[tuple]] = {}
    drops: list[tuple] = []
    stack = list(starts)
    seen = set(starts)
    while stack:
        state = stack.pop()
        node, ingress = state
        if node == dst:
            adj[state] = []
            continue
        _, _, hops = live_hops(deployment, node, dst, ingress)
        succs = [(peer.node.name, peer.name)
                 for _, _, peer in hops if peer is not None]
        if not hops or len(succs) < len(hops):
            drops.append(state)
        adj[state] = succs
        for succ in succs:
            preds.setdefault(succ, []).append(state)
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return (_ancestors(_cycle_states(adj), preds),
            _ancestors(drops, preds))


def _cycle_states(adj: dict[tuple, list[tuple]]) -> list[tuple]:
    """States on any directed cycle (Tarjan SCCs, iteratively)."""
    index: dict[tuple, int] = {}
    low: dict[tuple, int] = {}
    on_stack: set[tuple] = set()
    scc_stack: list[tuple] = []
    cycles: list[tuple] = []
    counter = [0]

    for root in adj:
        if root in index:
            continue
        work = [(root, iter(adj.get(root, ())))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        scc_stack.append(root)
        on_stack.add(root)
        while work:
            state, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    scc_stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(adj.get(succ, ()))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[state] = min(low[state], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[state])
            if low[state] == index[state]:
                component = []
                while True:
                    member = scc_stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == state:
                        break
                if len(component) > 1 or any(
                        m in adj.get(m, ()) for m in component):
                    cycles.extend(component)
    return cycles


def _ancestors(targets: list[tuple],
               preds: dict[tuple, list[tuple]]) -> set[tuple]:
    """Every state that can reach one of ``targets`` (inclusive)."""
    reached = set(targets)
    frontier = list(targets)
    while frontier:
        state = frontier.pop()
        for prev in preds.get(state, ()):
            if prev not in reached:
                reached.add(prev)
                frontier.append(prev)
    return reached
