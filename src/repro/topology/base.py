"""Topology-plugin substrate: the protocol every fabric builder implements.

A *topology* is one buildable data-center fabric family (the paper's
folded-Clos, VL2, a recursively-defined DCell — or any family someone
registers later).  The experiment harness never branches on which fabric
it is running; it talks to two abstractions only:

* :class:`TopologyDefinition` — the registered plugin: how to build the
  fabric into a :class:`~repro.net.world.World`, plus its canonical
  default parameters.
* :class:`Topology` — the structural protocol a built fabric satisfies:
  tier/role listings (ToRs, aggregation-role devices, top-tier devices),
  rack addressing and servers, failure-case enumeration (the paper's
  TC1–TC4 analogues), and the symbolic-target hooks the scenario engine
  resolves ``<node>.uplink[j]`` expressions through.

Specs (:class:`TopologySpec`) are the picklable, canonical-JSON-able unit
that crosses process boundaries and feeds the result-cache key: registry
name + canonical parameter tuple — exactly the shape that worked for
:mod:`repro.stacks` in the stack-plugin refactor.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Protocol, runtime_checkable

from repro.net.node import Node
from repro.net.world import World
from repro.registry import Registry, UnknownNameError, canonical_params
from repro.stack.addresses import Ipv4Address, Ipv4Network

TIER_SERVER = 0
TIER_TOR = 1
TIER_AGG = 2
TIER_TOP = 3
TIER_SUPER = 4

FIRST_TOR_VID = 11  # first rack subnet is 192.168.11.0/24, as in Fig. 2


class TopologyError(AssertionError):
    """A structural invariant of the built fabric is violated."""


@dataclass(frozen=True)
class FailureCase:
    """One of the paper's interface-failure test points.

    ``node`` is the device whose interface is administratively downed (it
    detects instantly); the peer must rely on protocol timers.  Every
    registered topology enumerates its own TC1–TC4 analogues.
    """

    name: str
    node: str
    interface: str
    peer_node: str
    description: str


@dataclass(frozen=True)
class TopologySpec:
    """One fabric selection, fully serialized: registry name + canonical
    build parameters.  This — never a concrete params class — is what
    task specs pickle and what cache keys derive from."""

    name: str
    params: tuple[tuple[str, Any], ...] = ()

    def params_dict(self) -> dict[str, Any]:
        return dict(self.params)

    @property
    def topology_name(self) -> str:
        """Self-identification, so specs duck-type like legacy params."""
        return self.name


@runtime_checkable
class Topology(Protocol):
    """What the harness requires of a built fabric.

    Implementations additionally expose ``world``, ``servers`` (ToR ->
    hosts), ``rack_subnet``/``rack_port``/``tor_vid_seed`` (per-ToR
    addressing), ``server_gateway`` (host -> ToR-side address) and the
    grouped ``tors``/``aggs``/``tops``/``supers`` listings as attributes;
    deployment and scenario code use all of them.
    """

    def node(self, name: str) -> Node: ...

    def all_tors(self) -> list[str]: ...

    def all_aggs(self) -> list[str]: ...

    def all_tops(self) -> list[str]: ...

    def all_supers(self) -> list[str]: ...

    def routers(self) -> list[str]: ...

    def all_servers(self) -> list[str]: ...

    def first_server_of(self, tor: str) -> str: ...

    def server_address(self, host: str) -> Ipv4Address: ...

    def rack_endpoints(self) -> list[tuple[str, list[str]]]: ...

    def failure_cases(self) -> dict[str, FailureCase]: ...

    def fabric_ports(self, node_name: str, up: bool) -> list[str]: ...

    def validate_structure(self) -> None: ...

    def describe(self) -> str: ...


class BaseTopology:
    """Shared concrete base: a built fabric's nodes, links, addressing
    and failure points.

    Subclasses fill the grouped listings during their build function and
    override :meth:`validate_structure` with family-specific invariants
    and — when the tier-comparison default is wrong for their wiring
    (e.g. same-tier cross-cell links) — :meth:`fabric_ports`.
    """

    #: registry name, for display and error messages (set by subclasses)
    topology_name = "generic"

    def __init__(self, world: World, params: Any) -> None:
        self.world = world
        self.params = params
        # zone -> group (pod/pair/cell) -> list of node names
        self.tors: list[list[list[str]]] = []
        self.aggs: list[list[list[str]]] = []
        # zone -> plane -> list of top names
        self.tops: list[list[list[str]]] = []
        # group -> list of super-spine names
        self.supers: list[list[str]] = []
        self.servers: dict[str, list[str]] = {}       # tor -> hosts
        self.rack_subnet: dict[str, Ipv4Network] = {} # tor -> 192.168.V.0/24
        self.rack_port: dict[str, str] = {}           # tor -> iface name
        self.tor_vid_seed: dict[str, int] = {}        # tor -> third byte V
        self.server_gateway: dict[str, Ipv4Address] = {}  # host -> ToR addr

    # ------------------------------------------------------------------
    def node(self, name: str) -> Node:
        return self.world.node(name)

    def all_tors(self) -> list[str]:
        return [t for zone in self.tors for pod in zone for t in pod]

    def all_aggs(self) -> list[str]:
        return [a for zone in self.aggs for pod in zone for a in pod]

    def all_tops(self) -> list[str]:
        return [t for zone in self.tops for plane in zone for t in plane]

    def all_supers(self) -> list[str]:
        return [s for group in self.supers for s in group]

    def routers(self) -> list[str]:
        return (self.all_tors() + self.all_aggs() + self.all_tops()
                + self.all_supers())

    def all_servers(self) -> list[str]:
        return [h for hosts in self.servers.values() for h in hosts]

    def first_server_of(self, tor: str) -> str:
        return self.servers[tor][0]

    def rack_endpoints(self) -> list[tuple[str, list[str]]]:
        """(tor, hosts) per rack, in ToR creation order — the endpoint
        enumeration seam the workload synthesizer expands traffic
        matrices over.  Every registered family gets it for free from
        ``servers``; a family with off-rack endpoints would override."""
        return [(tor, list(self.servers.get(tor, ())))
                for tor in self.all_tors()]

    def server_address(self, host: str) -> Ipv4Address:
        node = self.node(host)
        for iface in node.interfaces.values():
            if iface.address is not None:
                return iface.address
        raise ValueError(f"{host} has no address")

    # ------------------------------------------------------------------
    def failure_cases(self) -> dict[str, FailureCase]:
        """The family's TC1..TC4 analogues (subclasses override)."""
        return {}

    def _iface_between(self, node_name: str, peer_name: str) -> str:
        node = self.node(node_name)
        for iface in node.interfaces.values():
            peer = iface.peer()
            if peer is not None and peer.node.name == peer_name:
                return iface.name
        raise ValueError(f"no link between {node_name} and {peer_name}")

    # public spelling of the same lookup, for plugin and scenario code
    iface_between = _iface_between

    # ------------------------------------------------------------------
    def fabric_ports(self, node_name: str, up: bool) -> list[str]:
        """Fabric-facing ports of one node, in creation order — the hook
        behind the scenario engine's ``<node>.uplink[j]`` /
        ``<node>.downlink[j]`` symbolic targets.

        The default is tier comparison (an uplink leads to a strictly
        higher tier), which is right for every strictly-tiered family;
        recursively-defined fabrics with same-tier cross links override
        this to define what "up" (out of the cell) means for them.
        """
        node = self.node(node_name)
        ports = []
        for iface in node.interfaces.values():
            peer = iface.peer()
            if peer is None or peer.node.tier == TIER_SERVER:
                continue
            if (peer.node.tier > node.tier) == up:
                ports.append(iface.name)
        return ports

    # ------------------------------------------------------------------
    def validate_structure(self) -> None:
        """Family-specific wiring invariants; raise
        :class:`TopologyError` on violation (subclasses override)."""

    def describe(self) -> str:
        return (f"{self.topology_name}: {len(self.routers())} routers, "
                f"{len(self.all_servers())} servers, "
                f"{len(self.world.links)} links")


class AddressAllocator:
    """Sequential /31 allocation for fabric p2p links from 172.16.0.0/16."""

    def __init__(self) -> None:
        self._next = 0
        self._base = Ipv4Address.parse("172.16.0.0").value

    def next_pair(self) -> tuple[Ipv4Address, Ipv4Address]:
        base = self._base + 2 * self._next
        self._next += 1
        if base + 1 >= Ipv4Address.parse("172.17.0.0").value:
            raise ValueError("fabric address pool exhausted (172.16/16)")
        return Ipv4Address(base), Ipv4Address(base + 1)


def rack_subnet_for(vid_seed: int) -> Ipv4Network:
    """The paper's rack addressing: 192.168.<VID>.0/24, rolling into
    192.<169+>.x/24 past VID 255 so very large fabrics still get unique
    rack prefixes — the inverse of ``core.vid.WideDerivation``."""
    major = 168 + vid_seed // 256
    if major > 255:
        raise ValueError("rack subnet pool exhausted")
    return Ipv4Network.parse(f"192.{major}.{vid_seed % 256}.0/24")


def cable_fabric_link(world: World, alloc: AddressAllocator,
                      lower: str, upper: str,
                      bandwidth_bps: int, propagation_us: int) -> None:
    """Cable ``lower`` to ``upper`` with a fresh /31 pair — the shared
    wiring step every builder uses (downstream-before-upstream interface
    ordering is the caller's responsibility; port numbers matter to
    MR-MTP's VID derivation)."""
    a, b = alloc.next_pair()
    low_if = world.node(lower).add_interface()
    up_if = world.node(upper).add_interface()
    world.cable(low_if, up_if, bandwidth_bps, propagation_us)
    low_if.assign_address(a, 31)
    up_if.assign_address(b, 31)


def provision_racks(topo: BaseTopology, servers_per_rack: int,
                    bandwidth_bps: int, propagation_us: int) -> None:
    """Rack ports and servers on every ToR (highest-numbered ToR ports).

    Each server hangs off its own ToR port; the ToR-side interface of
    server *s* carries gateway address .254-s in the shared rack subnet
    (a routed-rack design, host /32s beyond the first server).  The
    first rack-facing port is the one MR-MTP reads its VID from, so it
    must be created after every fabric port — call this last.
    """
    for tor_name in topo.all_tors():
        tor = topo.world.node(tor_name)
        subnet = topo.rack_subnet[tor_name]
        subnet_size = 1 << (32 - subnet.prefix_len)
        hosts = []
        if servers_per_rack == 0:
            # keep an addressed (uncabled) rack port so VID derivation
            # still works on fabrics built without servers
            rack_if = tor.add_interface()
            rack_if.assign_address(subnet.host(subnet_size - 2),
                                   subnet.prefix_len)
            topo.rack_port[tor_name] = rack_if.name
        for s in range(servers_per_rack):
            host_name = f"H-{tor_name}-{s + 1}"
            host = topo.world.add_node(host_name, tier=TIER_SERVER)
            host_if = host.add_interface()
            tor_if = tor.add_interface()
            topo.world.cable(host_if, tor_if, bandwidth_bps, propagation_us)
            host_if.assign_address(subnet.host(s + 1), subnet.prefix_len)
            tor_if.assign_address(subnet.host(subnet_size - 2 - s),
                                  subnet.prefix_len)
            if s == 0:
                topo.rack_port[tor_name] = tor_if.name
            topo.server_gateway[host_name] = tor_if.address
            hosts.append(host_name)
        topo.servers[tor_name] = hosts


def _coerce_one(name: str, value: Any, default: Any) -> Any:
    """CLI ``-T key=value`` strings to the default's type."""
    if not isinstance(value, str) or isinstance(default, str):
        return value
    try:
        if isinstance(default, bool):
            if value.lower() in ("1", "true", "yes", "on"):
                return True
            if value.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(value)
        if isinstance(default, int):
            return int(value)
        if isinstance(default, float):
            return float(value)
    except ValueError:
        raise ValueError(
            f"parameter {name}={value!r} is not a valid "
            f"{type(default).__name__}") from None
    return value


@dataclass(frozen=True)
class TopologyDefinition:
    """A registered topology plugin.

    ``build(world, **params)`` constructs the fabric into ``world`` and
    returns a :class:`Topology`.  ``default_params`` enumerates every
    accepted parameter with its default — the single source the CLI, the
    spec validator and ``repro topology show`` all read.
    """

    name: str
    display: str
    build: Callable[..., Topology]
    description: str = ""
    default_params: Mapping[str, Any] = field(default_factory=dict)

    def spec(self, **overrides: Any) -> TopologySpec:
        """A canonical spec for this topology (defaults + overrides).

        Unknown parameter names are rejected here, up front — a typo'd
        override silently ignored at build time would cache-key a fabric
        that was never built.
        """
        unknown = sorted(set(overrides) - set(self.default_params))
        if unknown:
            raise ValueError(
                f"unknown {self.name} parameter(s) {', '.join(unknown)}; "
                f"accepted: {', '.join(sorted(self.default_params))}")
        merged = {**self.default_params, **overrides}
        return TopologySpec(name=self.name, params=canonical_params(merged))

    def coerce_params(self, raw: Mapping[str, Any]) -> dict[str, Any]:
        """Coerce CLI ``key=value`` strings onto the defaults' types."""
        out = {}
        for key, value in raw.items():
            default = self.default_params.get(key)
            out[key] = (_coerce_one(key, value, default)
                        if default is not None else value)
        return out

    def build_spec(self, spec: TopologySpec,
                   world: Optional[World] = None, seed: int = 0) -> Topology:
        """Build exactly the fabric ``spec`` describes."""
        if world is None:
            world = World(seed=seed)
        return self.build(world=world, **spec.params_dict())


class UnknownTopologyError(UnknownNameError):
    """Lookup of a topology name nobody registered."""


TOPOLOGIES: Registry[TopologyDefinition] = Registry("topology",
                                                    UnknownTopologyError)
register_topology = TOPOLOGIES.register
unregister_topology = TOPOLOGIES.unregister
get_topology = TOPOLOGIES.get
available_topologies = TOPOLOGIES.names

#: the fabric the paper evaluates — plugin zero, and what a bare
#: ``build_topology()`` call (no selection at all) builds
DEFAULT_TOPOLOGY = "clos"


def resolve_topology_spec(topology: Any = None) -> TopologySpec:
    """Normalize any accepted topology spelling to a
    :class:`TopologySpec`: a registry name, a prepared spec, a
    definition, or a params dataclass exposing ``topology_name`` (such
    as ``ClosParams``).

    ``None`` selects the default fabric with default parameters, so the
    legacy ``build_folded_clos()``-with-no-arguments call shape keeps a
    direct registry equivalent.
    """
    if topology is None:
        return get_topology(DEFAULT_TOPOLOGY).spec()
    if isinstance(topology, TopologySpec):
        return topology
    if isinstance(topology, TopologyDefinition):
        return topology.spec()
    if isinstance(topology, str):
        return get_topology(topology).spec()
    name = getattr(topology, "topology_name", None)
    if isinstance(name, str) and dataclasses.is_dataclass(topology) \
            and not isinstance(topology, type):
        params = dataclasses.asdict(topology)
        return get_topology(name).spec(**params)
    raise TypeError(
        f"cannot resolve a topology from {topology!r}; expected a "
        f"registry name, TopologySpec, TopologyDefinition, or a params "
        f"dataclass with a topology_name attribute")


def build_topology(topology: Any = None,
                   world: Optional[World] = None, seed: int = 0) -> Topology:
    """Resolve ``topology`` and build it — the one entry point every
    harness layer constructs fabrics through."""
    spec = resolve_topology_spec(topology)
    return get_topology(spec.name).build_spec(spec, world=world, seed=seed)
