"""Stack-plugin substrate: what a stack is and what its deployment does.

A *stack* is one routable control/data-plane bundle (the paper's MR-MTP,
BGP/ECMP, BGP/ECMP/BFD — or any variant of them).  The experiment
harness never branches on which stack it is running; it talks to two
abstractions only:

* :class:`StackDefinition` — one row of the stack table: registry name,
  display name, description, protocol family and default deploy
  parameters.  The *family* is a module (:mod:`repro.stacks.mtp`,
  :mod:`repro.stacks.bgp`) that provides four functions::

      deploy(topo, timers=None, **params) -> Deployment
      render_config(topo, timers=None, node=None, **params) -> str
      detection_bound_us(timers, params) -> int
      stale_hold_us(timers, params) -> int
      keepalive_period_us(timers, params) -> int

  The three bound functions are the single source of a stack's timer
  bounds: pre-deployment code (sweep/chaos windows) and the deployed
  instance both call them.
* :class:`Deployment` — a deployed stack: start, readiness,
  forwarding-table/update introspection, liveness periods, agent
  crash/restart, per-node table statistics, config cost, and
  :meth:`~Deployment.fluid_candidates`, the one place a stack says
  where a frame goes: the path trace, the rack-pair verdict, the
  invariant monitor, the fluid workload engine and
  :meth:`~Deployment.ready`, the one readiness predicate, all read it.

Specs (:class:`StackSpec`) are the picklable, canonical-JSON-able unit
that crosses process boundaries and feeds the result-cache key: registry
name + canonical parameter tuple + timer bundle.
"""

from __future__ import annotations

import dataclasses
import inspect
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from repro.bfd.session import BfdTimers
from repro.bgp.config import BgpTimers
from repro.core.config import MtpTimers
from repro.iputil.stack import IpStack
from repro.iputil.udp_service import UdpService
from repro.liveness import LivenessConfig
from repro.registry import Registry, UnknownNameError, canonical_params
from repro.routing.table import NextHop, Route
from repro.stack.addresses import Ipv4Network
from repro.topology import TIER_SERVER, Topology

@dataclass
class StackTimers:
    """Timer bundle; defaults are the paper's section VI.F values."""

    bgp: BgpTimers = field(default_factory=BgpTimers)
    bfd: BfdTimers = field(default_factory=BfdTimers)
    mtp: MtpTimers = field(default_factory=MtpTimers)


@dataclass(frozen=True)
class TableStats:
    """One node's forwarding-table size (Listings 3 and 5)."""

    entries: int
    memory_bytes: int
    rendered: str


@dataclass(frozen=True)
class ConfigCost:
    """Operator-written configuration: line count and artifact count."""

    total_lines: int
    documents: int


@dataclass
class ServerHost:
    stack: IpStack
    udp: UdpService


def deploy_servers(topo: Topology) -> dict[str, ServerHost]:
    """IP stacks + default routes on every server."""
    hosts: dict[str, ServerHost] = {}
    for tor, servers in topo.servers.items():
        for name in servers:
            node = topo.node(name)
            stack = IpStack(node, forwarding=False)
            stack.install_connected_routes()
            gateway = topo.server_gateway[name]
            stack.table.install(Route(
                prefix=Ipv4Network.parse("0.0.0.0/0"),
                nexthops=(NextHop(interface="eth1", via=gateway),),
                proto="static",
            ))
            hosts[name] = ServerHost(stack=stack, udp=UdpService(stack))
    return hosts


def install_rack_host_routes(topo: Topology, tor: str,
                             stack: IpStack) -> None:
    """/32 host routes toward each server (routed-rack design), so racks
    with several servers forward correctly past the shared /24."""
    node = topo.node(tor)
    for iface in node.interfaces.values():
        peer = iface.peer()
        if peer is None or peer.node.tier != TIER_SERVER or peer.address is None:
            continue
        stack.table.install(Route(
            prefix=Ipv4Network.of(peer.address, 32),
            nexthops=(NextHop(interface=iface.name),),
            proto="connected",
        ))


@dataclass(kw_only=True)
class Deployment:
    """A stack deployed onto a built topology: what the harness requires
    of it.  ``topo`` and ``servers`` (name -> host with a ``udp``
    service) are what the traffic experiments use.

    A family subclass maps each router to its control-plane agent in
    :attr:`agents` (anything with ``start()``, ``crash()`` and
    ``restart(cold=...)``) and implements every method below that raises
    :class:`NotImplementedError`.
    """

    topo: Topology
    servers: dict[str, ServerHost]
    timers: StackTimers
    liveness: Optional[LivenessConfig] = None
    graceful_restart: bool = False
    # (route_generation(), verdict) of the last candidate walk
    _routes_verdict: tuple[int, bool] = field(
        default=(-1, False), init=False, repr=False, compare=False)

    @property
    def agents(self) -> Mapping[str, Any]:
        """Router name -> control-plane agent."""
        raise NotImplementedError

    def start(self) -> None:
        """Kick off every protocol instance (timers, hellos, sessions)."""
        for agent in self.agents.values():
            agent.start()

    def crash_agent(self, node: str) -> None:
        """Kill the node's control plane silently; the data plane keeps
        forwarding headless on the frozen tables."""
        self.agents[node].crash()

    def restart_agent(self, node: str, cold: Optional[bool] = None) -> None:
        """Boot the node's control plane back: cold (forwarding state
        wiped) or gracefully (stale state retained and re-confirmed).
        ``cold`` defaults to the stack's configured restart mode; a
        whole-node restore forces ``cold=True``."""
        if cold is None:
            cold = not self.graceful_restart
        self.agents[node].restart(cold=cold)

    def route_generation(self) -> int:
        """The world's forwarding version: it moves whenever anything
        the data plane consults changes (tables, admin port state,
        neighbor usability, gray-link depreference) and never falls."""
        return self.topo.world.sim.forwarding_version

    def ready(self) -> bool:
        """Cold-start convergence predicate: the sessions are up and
        every router has a forwarding candidate toward every other rack
        (walked again only once :meth:`route_generation` moves)."""
        if not self.sessions_up():
            return False
        generation = self.route_generation()
        if self._routes_verdict[0] != generation:
            tors = self.topo.all_tors()
            self._routes_verdict = (generation, all(
                self.fluid_candidates(node, tor, None)[2]
                for node in self.agents for tor in tors if tor != node))
        return self._routes_verdict[1]

    def sessions_up(self) -> bool:
        """Every control-plane session the family runs is up (true for
        a family without sessions)."""
        return True

    def forwarding_tables(self) -> dict[str, Any]:
        """name -> table with ``.change_count`` / ``.last_change_time``."""
        raise NotImplementedError

    def update_categories(self) -> tuple[str, ...]:
        """Trace categories that count as control-plane update traffic."""
        raise NotImplementedError

    def keepalive_period_us(self) -> int:
        """Steady-state liveness period (hello/keepalive interval)."""
        raise NotImplementedError

    def detection_bound_us(self) -> int:
        """Upper bound on one-sided failure-detection latency."""
        raise NotImplementedError

    def classify_liveness(self, record: Any) -> Optional[str]:
        """Classify one trace record as a liveness transition: one of
        ``"down-detected"`` (a liveness timer declared the peer dead),
        ``"down-admin"`` (local link-down event), ``"up"``
        (adjacency/session established), ``"suppress"`` / ``"reuse"``
        (flap damping quarantined / released the adjacency — liveness-
        enabled stacks only), or None for anything else.  Feeds the
        false-positive / flap / MTTR metrics of the chaos suite."""
        raise NotImplementedError

    def table_stats(self, node: str) -> TableStats:
        """Converged forwarding-state size of one node."""
        raise NotImplementedError

    def config_cost(self) -> ConfigCost:
        """Configuration an operator writes for this deployment."""
        raise NotImplementedError

    def describe_node(self, node: str) -> str:
        """Human-readable converged state of one node (CLI display)."""
        raise NotImplementedError

    def fluid_candidates(self, node: str, dst_tor: str,
                         ingress_port: Optional[str]
                         ) -> tuple[int, bool, tuple[str, ...]]:
        """The multipath candidate set at ``node`` toward rack
        ``dst_tor``, as ``(ecmp_salt, per_packet_spray, egress ports)``
        — the exact ordered set the data plane balances a flow over
        right now, so every forwarding walk
        (:func:`repro.harness.pathtrace.live_hops`) reproduces per-flow
        path choices without forwarding a packet.  An empty port tuple
        means the stack currently has no path (a blackhole)."""
        raise NotImplementedError


@dataclass(frozen=True)
class StackSpec:
    """One stack selection, fully serialized: registry name, canonical
    deploy parameters, and the timer bundle.  This is what task specs
    pickle and what cache keys derive from."""

    name: str
    params: tuple[tuple[str, Any], ...] = ()
    timers: StackTimers = field(default_factory=StackTimers)

    def params_dict(self) -> dict[str, Any]:
        return dict(self.params)

    def with_timers(self, timers: StackTimers) -> "StackSpec":
        return dataclasses.replace(self, timers=timers)


@dataclass(frozen=True)
class StackDefinition:
    """A registered stack plugin: one row of the stack table.

    ``family`` provides the four family functions (module docstring);
    ``default_params`` are the deploy keyword arguments that make this
    row differ from its family's defaults.
    """

    name: str
    display: str
    description: str
    family: Any
    default_params: Mapping[str, Any] = field(default_factory=dict)

    def spec(self, timers: Optional[StackTimers] = None,
             **overrides: Any) -> StackSpec:
        """A canonical spec for this stack (defaults + overrides).

        Override names the family's deploy function does not take are
        rejected here, up front — a typo'd override would otherwise
        cache-key a deployment that can never be built.
        """
        if overrides:
            accepted = {
                name for name, p in
                inspect.signature(self.family.deploy).parameters.items()
                if p.kind is p.KEYWORD_ONLY}
            unknown = sorted(set(overrides) - accepted)
            if unknown:
                raise ValueError(
                    f"unknown {self.name} parameter(s) {', '.join(unknown)}"
                    f"; accepted: {', '.join(sorted(accepted))}")
        merged = {**self.default_params, **overrides}
        return StackSpec(name=self.name, params=canonical_params(merged),
                         timers=timers if timers is not None else StackTimers())

    def build(self, topo: Any, spec: StackSpec) -> Deployment:
        """Deploy onto ``topo`` exactly as ``spec`` describes."""
        return self.family.deploy(topo, spec.timers, **spec.params_dict())

class UnknownStackError(UnknownNameError):
    """Lookup of a stack name nobody registered."""


STACKS: Registry[StackDefinition] = Registry("stack", UnknownStackError)
register_stack = STACKS.register
unregister_stack = STACKS.unregister
get_stack = STACKS.get
available_stacks = STACKS.names


def resolve_spec(stack: Any,
                 timers: Optional[StackTimers] = None) -> StackSpec:
    """Normalize a registry name, :class:`StackSpec` or
    :class:`StackDefinition` to a :class:`StackSpec`; ``timers`` (when
    given) overrides the spec's bundle."""
    if isinstance(stack, StackSpec):
        return stack if timers is None else stack.with_timers(timers)
    if isinstance(stack, StackDefinition):
        return stack.spec(timers=timers)
    if not isinstance(stack, str):
        raise TypeError(
            f"cannot resolve a stack from {stack!r}; expected a registry "
            f"name, StackSpec or StackDefinition")
    return get_stack(stack).spec(timers=timers)
