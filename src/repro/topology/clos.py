"""Folded-Clos builder — topology plugin zero.

Topology model (matching the paper's Figs. 2-3):

* tier 1: ToRs (leaves) ``L-<pod>-<t>``, one rack subnet each;
* tier 2: pod spines (aggregations) ``S-<pod>-<a>``;
* tier 3: top spines ``T-<n>``, arranged in *planes*: plane *a* holds the
  tops reachable from aggregation *a* of every pod (the paper's
  S1_1 -> {S2_1, S2_3} / S1_2 -> {S2_2, S2_4} wiring);
* optional tier 4 (scalability extension, paper section IX): multiple
  *zones* each with their own top layer, stitched by super-spines
  ``U-<g>-<k>``: the top at position *g* of every zone connects to all
  super-spines in group *g*.

Port-number discipline matters to MR-MTP (child VIDs append the parent's
port number), so interfaces are created in a fixed order: downstream
ports first, then upstream ports, then (on ToRs) the rack port — giving
the rack port the highest number, as in the paper's Listing 2 where it is
configured explicitly.

This module is registered as the ``"clos"`` plugin in
:mod:`repro.topology.builtin`; everything outside :mod:`repro.topology`
reaches it through the registry (``build_topology``, ``TopologySpec``),
never by importing :class:`ClosParams`/:class:`ClosTopology` directly —
enforced by ``tests/topology/test_lint.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.link import DEFAULT_BANDWIDTH_BPS, DEFAULT_PROPAGATION_US
from repro.net.world import World
from repro.topology.base import (
    FIRST_TOR_VID,
    TIER_AGG,
    TIER_SERVER,
    TIER_SUPER,
    TIER_TOP,
    TIER_TOR,
    AddressAllocator,
    BaseTopology,
    FailureCase,
    TopologyError,
    cable_fabric_link,
    provision_racks,
    rack_subnet_for,
)

__all__ = [
    "TIER_SERVER", "TIER_TOR", "TIER_AGG", "TIER_TOP", "TIER_SUPER",
    "FIRST_TOR_VID", "FailureCase",
    "ClosParams", "ClosTopology", "build_folded_clos",
    "two_pod_params", "four_pod_params",
]


@dataclass(frozen=True)
class ClosParams:
    """Shape of a folded-Clos fabric."""

    num_pods: int = 2
    tors_per_pod: int = 2
    aggs_per_pod: int = 2
    tops_per_plane: int = 2
    servers_per_rack: int = 1
    zones: int = 1                 # >1 adds the tier-4 super-spine layer
    supers_per_group: int = 2      # width of each super-spine group
    bandwidth_bps: int = DEFAULT_BANDWIDTH_BPS
    propagation_us: int = DEFAULT_PROPAGATION_US

    def __post_init__(self) -> None:
        for name in ("num_pods", "tors_per_pod", "aggs_per_pod",
                     "tops_per_plane", "zones", "supers_per_group"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.servers_per_rack < 0:
            raise ValueError("servers_per_rack must be >= 0")

    @property
    def topology_name(self) -> str:
        """The registry name this params object resolves to (duck-typed
        by :func:`repro.topology.resolve_topology_spec`)."""
        return "clos"

    @property
    def num_planes(self) -> int:
        return self.aggs_per_pod

    @property
    def num_tiers(self) -> int:
        return 4 if self.zones > 1 else 3

    @property
    def routers_per_zone(self) -> int:
        return (
            self.num_pods * (self.tors_per_pod + self.aggs_per_pod)
            + self.num_planes * self.tops_per_plane
        )

    @property
    def num_routers(self) -> int:
        supers = 0
        if self.zones > 1:
            supers = self.num_planes * self.tops_per_plane * self.supers_per_group
        return self.zones * self.routers_per_zone + supers


def two_pod_params(**overrides) -> ClosParams:
    """The paper's 2-PoD topology: 4 ToR + 4 agg + 4 top = 12 routers."""
    return ClosParams(num_pods=2, **overrides)


def four_pod_params(**overrides) -> ClosParams:
    """The paper's 4-PoD topology: 8 ToR + 8 agg + 4 top = 20 routers."""
    return ClosParams(num_pods=4, **overrides)


class ClosTopology(BaseTopology):
    """A built fabric: nodes, links, addressing and failure points."""

    topology_name = "clos"

    def __init__(self, world: World, params: ClosParams) -> None:
        super().__init__(world, params)

    # ------------------------------------------------------------------
    # the paper's four failure test cases (TC1-TC4, Fig. 3)
    # ------------------------------------------------------------------
    def failure_cases(self) -> dict[str, FailureCase]:
        """TC1..TC4 on the canonical first-PoD devices.

        TC1: ToR's uplink to its first agg fails at the ToR side.
        TC2: the same link fails at the agg side.
        TC3: the agg's uplink to its first top fails at the agg side.
        TC4: the same link fails at the top side.
        """
        tor = self.tors[0][0][0]
        agg = self.aggs[0][0][0]
        top = self.tops[0][0][0]
        return {
            "TC1": FailureCase("TC1", tor, self._iface_between(tor, agg), agg,
                               "ToR uplink fails at ToR side"),
            "TC2": FailureCase("TC2", agg, self._iface_between(agg, tor), tor,
                               "ToR-agg link fails at agg side"),
            "TC3": FailureCase("TC3", agg, self._iface_between(agg, top), top,
                               "agg uplink fails at agg side"),
            "TC4": FailureCase("TC4", top, self._iface_between(top, agg), agg,
                               "agg-top link fails at top side"),
        }

    # ------------------------------------------------------------------
    def describe(self) -> str:
        p = self.params
        lines = [
            f"folded-Clos: {p.zones} zone(s) x {p.num_pods} PoD(s), "
            f"{p.tors_per_pod} ToR + {p.aggs_per_pod} agg per PoD, "
            f"{p.num_planes} plane(s) x {p.tops_per_plane} top(s)"
            + (f", {p.supers_per_group}-wide super groups" if p.zones > 1 else ""),
            f"routers: {len(self.routers())}, servers: {len(self.all_servers())}, "
            f"links: {len(self.world.links)}",
        ]
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def _neighbors_by_tier(self, name: str) -> dict[int, set[str]]:
        node = self.node(name)
        result: dict[int, set[str]] = {}
        for iface in node.interfaces.values():
            peer = iface.peer()
            if peer is None:
                continue
            result.setdefault(peer.node.tier, set()).add(peer.node.name)
        return result

    def validate_structure(self) -> None:
        """The folded-Clos wiring invariants (the simulator-side analogue
        of the paper's topology-verification scripts)."""
        p = self.params

        # counts
        expected_routers = p.num_routers
        if len(self.routers()) != expected_routers:
            raise TopologyError(
                f"expected {expected_routers} routers, built "
                f"{len(self.routers())}"
            )

        # ToRs: uplinks to every agg in their pod, plus rack ports
        for z in range(p.zones):
            for pod in range(p.num_pods):
                pod_aggs = set(self.aggs[z][pod])
                for tor in self.tors[z][pod]:
                    up = self._neighbors_by_tier(tor).get(TIER_AGG, set())
                    if up != pod_aggs:
                        raise TopologyError(
                            f"{tor} uplinks {sorted(up)} != pod aggs "
                            f"{sorted(pod_aggs)}"
                        )
                    servers = self._neighbors_by_tier(tor).get(
                        TIER_SERVER, set())
                    if len(servers) != p.servers_per_rack:
                        raise TopologyError(
                            f"{tor} has {len(servers)} servers, expected "
                            f"{p.servers_per_rack}"
                        )

        # aggs: down to every ToR in pod, up to every top in their plane
        for z in range(p.zones):
            for pod in range(p.num_pods):
                pod_tors = set(self.tors[z][pod])
                for a_idx, agg in enumerate(self.aggs[z][pod]):
                    nbrs = self._neighbors_by_tier(agg)
                    if nbrs.get(TIER_TOR, set()) != pod_tors:
                        raise TopologyError(f"{agg} downlinks wrong")
                    plane_tops = set(self.tops[z][a_idx])
                    if nbrs.get(TIER_TOP, set()) != plane_tops:
                        raise TopologyError(
                            f"{agg} uplinks {nbrs.get(TIER_TOP)} != plane "
                            f"{sorted(plane_tops)}"
                        )

        # tops: one agg (the plane's) per pod in their zone
        for z in range(p.zones):
            for plane in range(p.num_planes):
                plane_aggs = {self.aggs[z][pod][plane]
                              for pod in range(p.num_pods)}
                for top in self.tops[z][plane]:
                    nbrs = self._neighbors_by_tier(top)
                    if nbrs.get(TIER_AGG, set()) != plane_aggs:
                        raise TopologyError(
                            f"{top} downlinks {nbrs.get(TIER_AGG)} != "
                            f"{plane_aggs}"
                        )
                    supers = nbrs.get(TIER_SUPER, set())
                    expected_supers = p.supers_per_group if p.zones > 1 else 0
                    if len(supers) != expected_supers:
                        raise TopologyError(
                            f"{top} has {len(supers)} super uplinks, "
                            f"expected {expected_supers}"
                        )

        # super-spines: their group's top position in every zone
        group_idx = 0
        for plane in range(p.num_planes):
            for k in range(p.tops_per_plane):
                if p.zones <= 1:
                    break
                group = self.supers[group_idx]
                group_idx += 1
                expected_tops = {self.tops[z][plane][k]
                                 for z in range(p.zones)}
                for sup in group:
                    nbrs = self._neighbors_by_tier(sup)
                    if nbrs.get(TIER_TOP, set()) != expected_tops:
                        raise TopologyError(f"{sup} downlinks wrong")


def build_folded_clos(
    params: Optional[ClosParams] = None,
    world: Optional[World] = None,
    seed: int = 0,
) -> ClosTopology:
    """Construct the fabric: nodes, cabling, addressing, servers."""
    if params is None:
        params = ClosParams()
    if world is None:
        world = World(seed=seed)
    topo = ClosTopology(world, params)
    alloc = AddressAllocator()

    def zone_tag(z: int) -> str:
        return f"Z{z + 1}-" if params.zones > 1 else ""

    # --- create routers ------------------------------------------------
    vid_seed = FIRST_TOR_VID
    for z in range(params.zones):
        zone_tors: list[list[str]] = []
        zone_aggs: list[list[str]] = []
        for p in range(params.num_pods):
            pod_tors, pod_aggs = [], []
            for t in range(params.tors_per_pod):
                name = f"{zone_tag(z)}L-{p + 1}-{t + 1}"
                world.add_node(name, tier=TIER_TOR)
                pod_tors.append(name)
                topo.tor_vid_seed[name] = vid_seed
                topo.rack_subnet[name] = rack_subnet_for(vid_seed)
                vid_seed += 1
            for a in range(params.aggs_per_pod):
                name = f"{zone_tag(z)}S-{p + 1}-{a + 1}"
                world.add_node(name, tier=TIER_AGG)
                pod_aggs.append(name)
            zone_tors.append(pod_tors)
            zone_aggs.append(pod_aggs)
        topo.tors.append(zone_tors)
        topo.aggs.append(zone_aggs)

        zone_tops: list[list[str]] = []
        top_index = 1
        for plane in range(params.num_planes):
            plane_tops = []
            for k in range(params.tops_per_plane):
                name = f"{zone_tag(z)}T-{top_index}"
                top_index += 1
                world.add_node(name, tier=TIER_TOP)
                plane_tops.append(name)
            zone_tops.append(plane_tops)
        topo.tops.append(zone_tops)

    if params.zones > 1:
        for plane in range(params.num_planes):
            for k in range(params.tops_per_plane):
                group = []
                for s in range(params.supers_per_group):
                    name = f"U-{plane + 1}-{k + 1}-{s + 1}"
                    world.add_node(name, tier=TIER_SUPER)
                    group.append(name)
                topo.supers.append(group)

    # --- cabling (downstream interfaces created before upstream) -------
    def cable(lower: str, upper: str) -> None:
        """Cable lower-tier node up to upper-tier node, with addresses.

        The upper node's (downstream) interface is created first in its
        own ordering because uppers are wired pod-by-pod below.
        """
        cable_fabric_link(world, alloc, lower, upper,
                          params.bandwidth_bps, params.propagation_us)

    for z in range(params.zones):
        # agg downstream ports to ToRs (created first on aggs),
        # then ToR upstream ports... ToRs need their uplink ports created
        # in agg order; iterate ToR-major so each ToR's uplinks are
        # eth1..ethA, then aggs gain downlinks in ToR order.
        for p in range(params.num_pods):
            for t_name in topo.tors[z][p]:
                for a_name in topo.aggs[z][p]:
                    cable(t_name, a_name)
        # agg uplinks to their plane's tops
        for p in range(params.num_pods):
            for a_idx, a_name in enumerate(topo.aggs[z][p]):
                for top_name in topo.tops[z][a_idx]:
                    cable(a_name, top_name)

    if params.zones > 1:
        group_idx = 0
        for plane in range(params.num_planes):
            for k in range(params.tops_per_plane):
                group = topo.supers[group_idx]
                group_idx += 1
                for z in range(params.zones):
                    top_name = topo.tops[z][plane][k]
                    for super_name in group:
                        cable(top_name, super_name)

    # --- rack ports and servers (highest-numbered ToR ports) -----------
    provision_racks(topo, params.servers_per_rack,
                    params.bandwidth_bps, params.propagation_us)

    return topo
