"""World: one simulated deployment.

Bundles the event engine, trace log, RNG registry, nodes and links, and
provides cabling helpers.  Everything an experiment run owns lives here,
so constructing a fresh :class:`World` per run gives full isolation
between repetitions (the "reserve a fresh slice" analogue).
"""

from __future__ import annotations

from typing import Optional

from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceLog
from repro.net.interface import Interface
from repro.net.link import Link, DEFAULT_BANDWIDTH_BPS, DEFAULT_PROPAGATION_US
from repro.net.node import Node


class World:
    def __init__(self, seed: int = 0, trace_enabled: bool = True) -> None:
        self.sim = Simulator()
        self.trace = TraceLog(self.sim, enabled=trace_enabled)
        self.rng = RngRegistry(seed)
        self.nodes: dict[str, Node] = {}
        self.links: list[Link] = []

    # ------------------------------------------------------------------
    def add_node(self, name: str, tier: int = 0) -> Node:
        if name in self.nodes:
            raise ValueError(f"duplicate node name {name!r}")
        node = Node(self.sim, name, self.trace, tier=tier)
        self.nodes[name] = node
        return node

    def node(self, name: str) -> Node:
        return self.nodes[name]

    def cable(
        self,
        iface_a: Interface,
        iface_b: Interface,
        bandwidth_bps: int = DEFAULT_BANDWIDTH_BPS,
        propagation_us: int = DEFAULT_PROPAGATION_US,
    ) -> Link:
        link = Link(self.sim, iface_a, iface_b, bandwidth_bps, propagation_us)
        self.links.append(link)
        return link

    def connect(
        self,
        node_a: Node,
        node_b: Node,
        bandwidth_bps: int = DEFAULT_BANDWIDTH_BPS,
        propagation_us: int = DEFAULT_PROPAGATION_US,
    ) -> Link:
        """Create a new interface on each node and cable them."""
        return self.cable(
            node_a.add_interface(),
            node_b.add_interface(),
            bandwidth_bps,
            propagation_us,
        )

    def find_link(self, name_a: str, name_b: str) -> Optional[Link]:
        """The link between two named nodes, if any."""
        for link in self.links:
            ends = {link.end_a.node.name, link.end_b.node.name}
            if ends == {name_a, name_b}:
                return link
        return None

    def all_interfaces(self) -> list[Interface]:
        return [
            iface
            for node in self.nodes.values()
            for iface in node.interfaces.values()
        ]

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> None:
        self.sim.run(until=until, max_events=max_events)

    def run_for(self, duration: int) -> None:
        self.sim.run_for(duration)
