"""Online forwarding-invariant monitor: loops and blackholes, timed.

At every route-change epoch the fluid workload engine observes (and at
the fault boundaries the scenario compiler schedules), the monitor walks
the deployed stack's *live* multipath forwarding graph — the exact
candidate sets the data plane balances over, via the same
:meth:`~repro.stacks.base.Deployment.fluid_candidates` hook the engine
and ``pathtrace`` use — and classifies every rack pair:

* **loop** — some ECMP choice sequence from the source ToR can re-enter
  a ``(node, ingress port)`` state it already visited: a packet taking
  those hashes circulates until TTL death;
* **blackhole** — some choice sequence reaches a state that drops
  (no candidate port, a downed egress, an uncabled port, or a dead far
  end) *while the reachability oracle says a valley-free path exists
  over the alive links*.  Dropping traffic the physics genuinely cannot
  deliver is correct behaviour, not an anomaly.

Consecutive checks stitch per-pair anomalies into
:class:`AnomalyEpisode` records with start/duration, so a restart
scenario yields "the fabric looped for 0 us and blackholed ToR1->ToR3
for 212 ms" rather than a boolean.  The monitor is deliberately silent
(no trace records, no RNG draws, no scheduled events of its own): runs
that never see an anomaly keep byte-identical digests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.harness.oracle import alive_fabric_graph, _down_closure, _up_closure

#: anomaly kinds
LOOP = "loop"
BLACKHOLE = "blackhole"


@dataclass
class AnomalyEpisode:
    """One contiguous per-pair anomaly: [start_us, end_us) between the
    check that first saw it and the first check that no longer did (or
    the finalize time, with ``ongoing`` set, if it never cleared)."""

    kind: str            # "loop" | "blackhole"
    src_tor: str
    dst_tor: str
    start_us: int
    end_us: int
    ongoing: bool = False

    @property
    def duration_us(self) -> int:
        return self.end_us - self.start_us

    def to_payload(self) -> list:
        return [self.kind, self.src_tor, self.dst_tor, self.start_us,
                self.end_us, int(self.ongoing)]


class InvariantMonitor:
    """Forwarding-invariant watcher bound to one deployed fabric.

    Call :meth:`check` whenever forwarding state may have changed (the
    fluid engine calls it from every epoch re-solve; the scenario
    compiler schedules extra checks around fault boundaries) and
    :meth:`finalize` once at measurement end.  Aggregates follow the
    harness's windowed-anomaly convention: counts plus the *longest*
    episode, mirroring ``max_blackhole_us``.
    """

    def __init__(self, topo, deployment) -> None:
        self.topo = topo
        self.deployment = deployment
        self.sim = topo.world.sim
        self.episodes: list[AnomalyEpisode] = []
        self.checks = 0
        self._open: dict[tuple[str, str, str], int] = {}
        self._finalized = False

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    def _agg(self, kind: str) -> tuple[int, int]:
        count = longest = 0
        for ep in self.episodes:
            if ep.kind == kind:
                count += 1
                longest = max(longest, ep.duration_us)
        return count, longest

    @property
    def loops(self) -> int:
        return self._agg(LOOP)[0]

    @property
    def loop_us(self) -> int:
        return self._agg(LOOP)[1]

    @property
    def blackholes(self) -> int:
        return self._agg(BLACKHOLE)[0]

    @property
    def blackhole_us(self) -> int:
        return self._agg(BLACKHOLE)[1]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def check(self) -> None:
        """Scan the live forwarding graph now; open/close episodes."""
        if self._finalized:
            return
        self.checks += 1
        now = self.sim.now
        current = self._scan()
        for key in current:
            self._open.setdefault(key, now)
        for key in [k for k in self._open if k not in current]:
            start = self._open.pop(key)
            self._record(key, start, now, ongoing=False)

    def finalize(self) -> None:
        """Close every still-open episode at the current time (marked
        ``ongoing``: the anomaly outlived the measurement).  Idempotent;
        episodes and aggregates are stable afterwards."""
        if self._finalized:
            return
        now = self.sim.now
        for key, start in sorted(self._open.items()):
            self._record(key, start, now, ongoing=True)
        self._open.clear()
        self._finalized = True

    def _record(self, key: tuple[str, str, str], start: int, end: int,
                ongoing: bool) -> None:
        kind, src, dst = key
        self.episodes.append(AnomalyEpisode(
            kind=kind, src_tor=src, dst_tor=dst,
            start_us=start, end_us=end, ongoing=ongoing))

    # ------------------------------------------------------------------
    # one scan: every (kind, src, dst) anomaly present right now
    # ------------------------------------------------------------------
    def _scan(self) -> set[tuple[str, str, str]]:
        topo = self.topo
        tors = topo.all_tors()
        graph = alive_fabric_graph(topo)
        up = {t: _up_closure(graph, t) for t in tors if t in graph.tier}
        down = {t: _down_closure(graph, t) for t in tors
                if t in graph.tier}
        anomalies: set[tuple[str, str, str]] = set()
        for dst in tors:
            can_loop, can_drop = self._walk(dst, tors)
            for src in tors:
                if src == dst:
                    continue
                state = (src, None)
                if state in can_loop:
                    anomalies.add((LOOP, src, dst))
                if state in can_drop and src in up and dst in down \
                        and up[src] & down[dst]:
                    anomalies.add((BLACKHOLE, src, dst))
        return anomalies

    def _walk(self, dst: str, tors: list[str]):
        """Explore the multipath state graph toward ``dst``: states are
        ``(node, ingress iface)``, edges are every live ECMP candidate.
        Returns the state sets that can reach a cycle / a drop."""
        topo = self.topo
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
            _, _, ports = self.deployment.fluid_candidates(node, dst,
                                                           ingress)
            succs: list[tuple] = []
            dead_here = not ports
            topo_node = topo.node(node)
            for port in ports:
                iface = topo_node.interfaces[port]
                if not iface.admin_up or iface.link is None:
                    dead_here = True
                    continue
                peer = iface.peer()
                if peer is None or not peer.admin_up:
                    dead_here = True
                    continue
                succs.append((peer.node.name, peer.name))
            if dead_here:
                drops.append(state)
            adj[state] = succs
            for succ in succs:
                preds.setdefault(succ, []).append(state)
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        cycle_states = self._cycle_states(adj)
        return (self._ancestors(cycle_states, preds),
                self._ancestors(drops, preds))

    @staticmethod
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

    @staticmethod
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
