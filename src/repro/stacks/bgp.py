"""The BGP family: ``bgp``, ``bgp-bfd`` and their variants.

Deploys RFC 7938 eBGP (+ECMP, optionally +BFD) on every router, renders
Listing 1's per-router FRR configuration, and derives the family's timer
bounds (see :mod:`repro.stacks.base` for the family contract).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.bfd.session import BfdManager
from repro.bgp.config import BgpConfig, BgpNeighborConfig, rfc7938_asn_plan
from repro.bgp.speaker import BgpSpeaker
from repro.iputil.stack import IpStack
from repro.iputil.tcp import TcpService
from repro.iputil.udp_service import UdpService
from repro.liveness.config import LivenessParam, resolve_liveness
from repro.stacks.base import (
    ConfigCost,
    Deployment,
    StackTimers,
    TableStats,
    deploy_servers,
    install_rack_host_routes,
)
from repro.topology import TIER_SERVER, Topology


def detection_bound_us(timers: StackTimers, params: Mapping[str, Any]) -> int:
    """The hold time, even with BFD enabled (BFD merely usually beats
    it, and a damped BFD's widened envelope stays under it); waiting
    for it costs only simulated time."""
    return timers.bgp.hold_us


def stale_hold_us(timers: StackTimers, params: Mapping[str, Any]) -> int:
    """The RFC 4724 restart time a helper keeps a dead peer's paths
    stale for after detecting it (0 without graceful restart)."""
    if not params.get("graceful_restart"):
        return 0
    return BgpConfig.gr_restart_time_us


def keepalive_period_us(timers: StackTimers,
                        params: Mapping[str, Any]) -> int:
    return timers.bgp.keepalive_us


@dataclass(kw_only=True)
class BgpDeployment(Deployment):
    speakers: dict[str, BgpSpeaker]
    stacks: dict[str, IpStack]

    @property
    def agents(self) -> dict[str, BgpSpeaker]:
        return self.speakers

    def sessions_up(self) -> bool:
        """Every BGP session Established, every configured BFD session Up."""
        return all(speaker.all_established() and all(
            peer.bfd_session is None or peer.bfd_session.up
            for peer in speaker.peers.values())
            for speaker in self.speakers.values())

    def forwarding_tables(self) -> dict[str, object]:
        """name -> object with .change_count / .last_change_time."""
        return {name: stack.table for name, stack in self.stacks.items()}

    def table_generation(self) -> int:
        """The FIBs (a crashed bgpd leaves the FIB forwarding headless,
        so session state itself is not an input)."""
        return sum(stack.table.change_count for stack in self.stacks.values())

    def update_categories(self) -> tuple[str, ...]:
        return ("bgp.update.tx",)

    def keepalive_period_us(self) -> int:
        return keepalive_period_us(self.timers, {})

    def detection_bound_us(self) -> int:
        return detection_bound_us(self.timers, {})

    def classify_liveness(self, record) -> Optional[str]:
        """bgp.session transitions: hold-timer / BFD / TCP-give-up downs
        are timer detections, interface-down is the local admin event.
        bgp.damping carries the flap-damping suppress/reuse edges."""
        if record.category == "bgp.damping":
            return "suppress" if " suppress " in record.message else "reuse"
        if record.category != "bgp.session":
            return None
        message = record.message
        if message.endswith(" up"):
            return "up"
        if ("(hold-timer)" in message or "(bfd)" in message
                or "(tcp:retransmit-timeout)" in message):
            return "down-detected"
        if "(interface-down)" in message:
            return "down-admin"
        return None  # notifications, sympathetic tcp teardowns, ...

    def table_stats(self, node: str) -> TableStats:
        table = self.stacks[node].table
        return TableStats(entries=len(table),
                          memory_bytes=table.memory_bytes(),
                          rendered=table.render())

    def config_cost(self) -> ConfigCost:
        total = sum(len(speaker.config.config_lines())
                    for speaker in self.speakers.values())
        return ConfigCost(total_lines=total, documents=len(self.speakers))

    def describe_node(self, node: str) -> str:
        return (self.speakers[node].summary() + "\nFIB:\n"
                + self.stacks[node].table.render())

    def fluid_candidates(self, node: str, dst_tor: str,
                         ingress_port: Optional[str]
                         ) -> tuple[int, bool, tuple[str, ...]]:
        """(salt, spray, egress ports) for rack ``dst_tor`` at ``node``,
        exactly the set :meth:`RoutingTable.select_nexthop` hashes over:
        the matched route's next hops in route order, hashed with the
        table's salt.  BGP ignores the ingress port."""
        table = self.stacks[node].table
        route = table.lookup(self.topo.rack_subnet[dst_tor].host(1))
        if route is None:
            return (table.salt, False, ())
        return (table.salt, False,
                tuple(nh.interface for nh in table.usable_nexthops(route)))


def deploy(
    topo: Topology,
    timers: Optional[StackTimers] = None,
    *,
    bfd: bool = False,
    multipath: bool = True,
    liveness: LivenessParam = False,
    graceful_restart: bool = False,
) -> BgpDeployment:
    """Deploy RFC 7938 eBGP (+ECMP, optionally +BFD) on every router."""
    if timers is None:
        timers = StackTimers()
    liveness_cfg = resolve_liveness(liveness)
    plan = rfc7938_asn_plan(topo)
    speakers: dict[str, BgpSpeaker] = {}
    stacks: dict[str, IpStack] = {}
    for index, name in enumerate(topo.routers()):
        node = topo.node(name)
        stack = IpStack(node, forwarding=True, salt=index + 1)
        stack.install_connected_routes()
        if name in topo.rack_subnet:
            install_rack_host_routes(topo, name, stack)
        stacks[name] = stack
        udp = UdpService(stack)
        tcp = TcpService(stack)
        bfd_mgr = (
            BfdManager(udp, rng=topo.world.rng.stream(f"bfd-{name}"))
            if bfd else None
        )
        neighbors = []
        for iface in node.interfaces.values():
            peer = iface.peer()
            if peer is None or peer.node.tier == TIER_SERVER:
                continue
            if peer.address is None:
                continue
            neighbors.append(BgpNeighborConfig(
                peer_ip=peer.address,
                peer_asn=plan[peer.node.name],
                interface=iface.name,
                bfd=bfd,
            ))
        networks = [topo.rack_subnet[name]] if name in topo.rack_subnet else []
        router_id = next(
            iface.address for iface in node.interfaces.values()
            if iface.address is not None
        )
        config = BgpConfig(
            asn=plan[name], router_id=router_id, neighbors=neighbors,
            networks=networks, multipath=multipath,
            graceful_restart=graceful_restart, timers=timers.bgp,
            bfd_timers=timers.bfd, liveness=liveness_cfg,
        )
        speaker = BgpSpeaker(
            node, config, stack, tcp, bfd_mgr,
            rng=topo.world.rng.stream(f"bgp-{name}"),
        )
        speakers[name] = speaker
        if liveness_cfg is not None and bfd:
            # gray-failure depreference: ECMP avoids next hops whose BFD
            # monitor measures degrade-level loss (route stays installed)
            stack.table.nexthop_bias = speaker.iface_link_degraded
    servers = deploy_servers(topo)
    return BgpDeployment(topo=topo, speakers=speakers, stacks=stacks,
                         servers=servers, timers=timers,
                         liveness=liveness_cfg,
                         graceful_restart=graceful_restart)


def render_config(topo: Topology, timers: Optional[StackTimers] = None,
                  node: Optional[str] = None, *, bfd: bool = False,
                  multipath: bool = True, liveness: LivenessParam = False,
                  graceful_restart: bool = False) -> str:
    """Listing 1: one router's FRR-style configuration."""
    deployment = deploy(topo, timers, bfd=bfd, multipath=multipath,
                        liveness=liveness, graceful_restart=graceful_restart)
    # prefer a top spine; fabrics without a top tier (recursive DCNs)
    # show their first router instead
    node = node or (topo.all_tops() or topo.routers())[0]
    lines = [f"! configuration for {node}"]
    lines.extend(deployment.speakers[node].config.config_lines())
    return "\n".join(lines)
