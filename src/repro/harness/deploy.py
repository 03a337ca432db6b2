"""Protocol deployment onto any built topology.

The analogue of the paper's "scripts ... to deploy the software (such as
BGP, BFD, MR-MTP) at the DCN routers": wires the full per-node service
stacks (IP/TCP/UDP/BFD/BGP on the baseline; MR-MTP plus a thin rack-side
IP shim on the proposal) and the server hosts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.stack.addresses import Ipv4Address, Ipv4Network
from repro.routing.ecmp import FlowKey
from repro.routing.table import NextHop, Route
from repro.iputil.stack import IpStack
from repro.iputil.tcp import TcpService
from repro.iputil.udp_service import UdpService
from repro.bfd.session import BfdManager, BfdTimers
from repro.bgp.config import BgpConfig, BgpNeighborConfig, BgpTimers, rfc7938_asn_plan
from repro.bgp.speaker import BgpSpeaker
from repro.core.config import MtpGlobalConfig, MtpTimers
from repro.core.protocol import MtpNode
from repro.core.vid import WideDerivation
from repro.liveness import LivenessConfig, resolve_liveness
from repro.stacks.base import ConfigCost, TableStats
from repro.topology import TIER_SERVER, Topology

MAX_TRACE_HOPS = 32


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


def _server_facing_ports(topo: Topology, router: str) -> list[str]:
    node = topo.node(router)
    return [
        iface.name
        for iface in node.interfaces.values()
        if iface.peer() is not None and iface.peer().node.tier == TIER_SERVER
    ]


def _install_rack_host_routes(topo: Topology, tor: str, stack: IpStack) -> None:
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


# ----------------------------------------------------------------------
# BGP / ECMP (/ BFD)
# ----------------------------------------------------------------------
@dataclass
class BgpDeployment:
    topo: Topology
    speakers: dict[str, BgpSpeaker]
    stacks: dict[str, IpStack]
    servers: dict[str, ServerHost]
    uses_bfd: bool
    timers: BgpTimers = field(default_factory=BgpTimers)
    liveness: Optional[LivenessConfig] = None
    graceful_restart: bool = False

    def start(self) -> None:
        for speaker in self.speakers.values():
            speaker.start()

    def crash_agent(self, node: str) -> None:
        """Kill the node's bgpd: sessions drop silently, the FIB keeps
        forwarding headless on frozen state."""
        self.speakers[node].crash()

    def restart_agent(self, node: str, cold: Optional[bool] = None) -> None:
        """Bring bgpd back.  ``cold`` defaults to the stack's configured
        restart mode; a whole-node restore forces ``cold=True``."""
        if cold is None:
            cold = not self.graceful_restart
        self.speakers[node].restart(cold=cold)

    def ready(self) -> bool:
        return (self.all_established() and self.fib_complete()
                and self.all_bfd_up())

    def all_established(self) -> bool:
        return all(s.all_established() for s in self.speakers.values())

    def all_bfd_up(self) -> bool:
        """Every configured BFD session is Up (vacuously true without BFD)."""
        if not self.uses_bfd:
            return True
        for speaker in self.speakers.values():
            for peer in speaker.peers.values():
                if peer.bfd_session is not None and not peer.bfd_session.up:
                    return False
        return True

    def forwarding_tables(self) -> dict[str, object]:
        """name -> object with .change_count / .last_change_time."""
        return {name: stack.table for name, stack in self.stacks.items()}

    def route_generation(self) -> int:
        """Version counter over everything the data plane consults: the
        FIBs plus admin port state (a crashed bgpd leaves the FIB
        forwarding headless, so session state itself is not an input)."""
        gen = sum(stack.table.change_count for stack in self.stacks.values())
        return gen + sum(
            1 for name in self.stacks
            for iface in self.topo.node(name).interfaces.values()
            if not iface.admin_up)

    def update_categories(self) -> tuple[str, ...]:
        return ("bgp.update.tx",)

    def fib_complete(self) -> bool:
        """Every router can route every rack subnet."""
        hosts = [prefix.host(1) for prefix in self.topo.rack_subnet.values()]
        for stack in self.stacks.values():
            for host in hosts:
                if stack.table.lookup(host) is None:
                    return False
        return True

    def keepalive_period_us(self) -> int:
        return self.timers.keepalive_us

    def detection_bound_us(self) -> int:
        # the hold timer bounds detection even with BFD enabled (BFD
        # merely usually beats it)
        return self.timers.hold_us

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

    def trace_fabric_path(self, path: list[str], dst_ip: Ipv4Address,
                          dst_host: str, flow: FlowKey) -> list[str]:
        current = path[-1]
        for _ in range(MAX_TRACE_HOPS):
            stack = self.stacks[current]
            nexthop = stack.table.select_nexthop(dst_ip, flow)
            if nexthop is None:
                raise RuntimeError(f"path dead-ends at {current} (no route)")
            iface = self.topo.node(current).interfaces[nexthop.interface]
            peer = iface.peer()
            if peer is None:
                raise RuntimeError(f"{current}:{nexthop.interface} uncabled")
            path.append(peer.node.name)
            if peer.node.name == dst_host:
                return path
            current = peer.node.name
        raise RuntimeError(f"path exceeds {MAX_TRACE_HOPS} hops: {path}")


def deploy_bgp(
    topo: Topology,
    bfd: bool = False,
    timers: Optional[BgpTimers] = None,
    bfd_timers: Optional[BfdTimers] = None,
    multipath: bool = True,
    liveness=None,
    graceful_restart: bool = False,
) -> BgpDeployment:
    """Deploy RFC 7938 eBGP (+ECMP, optionally +BFD) on every router."""
    if timers is None:
        timers = BgpTimers()
    if bfd_timers is None:
        bfd_timers = BfdTimers()
    liveness_cfg = resolve_liveness(liveness)
    plan = rfc7938_asn_plan(topo)
    speakers: dict[str, BgpSpeaker] = {}
    stacks: dict[str, IpStack] = {}
    for index, name in enumerate(topo.routers()):
        node = topo.node(name)
        stack = IpStack(node, forwarding=True, salt=index + 1)
        stack.install_connected_routes()
        if name in topo.rack_subnet:
            _install_rack_host_routes(topo, name, stack)
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
            graceful_restart=graceful_restart, timers=timers,
            bfd_timers=bfd_timers, liveness=liveness_cfg,
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
                         servers=servers, uses_bfd=bfd, timers=timers,
                         liveness=liveness_cfg,
                         graceful_restart=graceful_restart)


# ----------------------------------------------------------------------
# MR-MTP
# ----------------------------------------------------------------------
@dataclass
class MtpDeployment:
    topo: Topology
    mtp_nodes: dict[str, MtpNode]
    tor_stacks: dict[str, IpStack]
    servers: dict[str, ServerHost]
    config: MtpGlobalConfig
    timers: MtpTimers = field(default_factory=MtpTimers)
    liveness: Optional[LivenessConfig] = None
    graceful_restart: bool = False

    def start(self) -> None:
        for mtp in self.mtp_nodes.values():
            mtp.start()

    def crash_agent(self, node: str) -> None:
        """Kill the node's MR-MTP agent: control goes dark, the VID
        table keeps forwarding headless on frozen state."""
        self.mtp_nodes[node].crash()

    def restart_agent(self, node: str, cold: Optional[bool] = None) -> None:
        """Bring the agent back.  ``cold`` defaults to the stack's
        configured restart mode; a whole-node restore forces True."""
        if cold is None:
            cold = not self.graceful_restart
        self.mtp_nodes[node].restart(cold=cold)

    def ready(self) -> bool:
        return self.trees_complete()

    def forwarding_tables(self) -> dict[str, object]:
        return {name: mtp.table for name, mtp in self.mtp_nodes.items()}

    def route_generation(self) -> int:
        """Version counter over everything the data plane consults: VID
        tables plus neighbor usability (``fib_gen``) plus admin port
        state.  Graceful restart changes forwarding behavior without a
        table write, so table change-counts alone under-sample."""
        gen = sum(mtp.table.change_count + mtp.fib_gen
                  for mtp in self.mtp_nodes.values())
        return gen + sum(
            1 for name in self.mtp_nodes
            for iface in self.topo.node(name).interfaces.values()
            if not iface.admin_up)

    def update_categories(self) -> tuple[str, ...]:
        return ("mtp.update.tx",)

    def trees_complete(self) -> bool:
        """Every top-tier device holds a VID from every ToR root (the
        meshed-tree invariant of paper section III.B)."""
        all_roots = set(self.topo.tor_vid_seed.values())
        uppermost = self.topo.all_supers() or self.topo.all_tops()
        for name in uppermost:
            if self.mtp_nodes[name].table.roots() != all_roots:
                return False
        # each ToR derived its VID
        return all(
            self.mtp_nodes[t].own_root is not None for t in self.topo.all_tors()
        )

    def keepalive_period_us(self) -> int:
        return self.timers.hello_us

    def detection_bound_us(self) -> int:
        if self.liveness is not None and self.liveness.adaptive_timers:
            # adaptive widening: detection can legitimately take up to
            # the envelope ceiling on a measured-lossy link
            return int(self.timers.dead_us * self.liveness.max_scale)
        return self.timers.dead_us

    def classify_liveness(self, record) -> Optional[str]:
        """mtp.neighbor transitions: dead-timer downs are the
        Quick-to-Detect declarations, local-port-down the admin event.
        mtp.damping carries the flap-damping suppress/reuse edges."""
        if record.category == "mtp.damping":
            return "suppress" if " suppress " in record.message else "reuse"
        if record.category != "mtp.neighbor":
            return None
        message = record.message
        if " up (" in message:
            return "up"
        if message.endswith("(dead-timer)"):
            return "down-detected"
        if message.endswith("(local-port-down)"):
            return "down-admin"
        return None

    def table_stats(self, node: str) -> TableStats:
        table = self.mtp_nodes[node].table
        return TableStats(entries=table.entry_count(),
                          memory_bytes=table.memory_bytes(),
                          rendered=table.render())

    def config_cost(self) -> ConfigCost:
        # one fabric-wide JSON document configures every router
        return ConfigCost(total_lines=len(self.config.config_lines()),
                          documents=1)

    def describe_node(self, node: str) -> str:
        return self.mtp_nodes[node].summary()

    def fluid_candidates(self, node: str, dst_tor: str,
                         ingress_port: Optional[str]
                         ) -> tuple[int, bool, tuple[str, ...]]:
        """(salt, spray, egress ports) for rack ``dst_tor`` at ``node``:
        the candidate set :meth:`MtpNode.decide_data_port` balances over
        right now — VID-table down-ports when the node holds the
        destination root, else alive unmarked up-ports, ingress
        excluded."""
        mtp = self.mtp_nodes[node]
        dst_root = self.topo.tor_vid_seed[dst_tor]
        return (mtp.salt, mtp.per_packet_spray,
                tuple(mtp.candidate_data_ports(dst_root, ingress_port)))

    def trace_fabric_path(self, path: list[str], dst_ip: Ipv4Address,
                          dst_host: str, flow: FlowKey) -> list[str]:
        # at the source ToR the packet is locally encapsulated (no MTP
        # ingress port), matching MtpNode._intercept_ip
        ingress: Optional[str] = None
        current = path[-1]
        dst_root = self.mtp_nodes[current].derivation.root_for_address(dst_ip)
        for _ in range(MAX_TRACE_HOPS):
            mtp = self.mtp_nodes[current]
            if mtp.tier == 1 and mtp.own_root == dst_root:
                # destination ToR: rack delivery
                path.append(dst_host)
                return path
            egress = mtp.decide_data_port(dst_root, flow, ingress_port=ingress)
            if egress is None:
                raise RuntimeError(f"path dead-ends at {current} (no VID path)")
            peer = self.topo.node(current).interfaces[egress].peer()
            if peer is None:
                raise RuntimeError(f"{current}:{egress} uncabled")
            path.append(peer.node.name)
            current = peer.node.name
            ingress = peer.name
        raise RuntimeError(f"path exceeds {MAX_TRACE_HOPS} hops: {path}")


def deploy_mtp(
    topo: Topology,
    timers: Optional[MtpTimers] = None,
    per_packet_spray: bool = False,
    liveness=None,
    graceful_restart: bool = False,
    stale_hold_us: Optional[int] = None,
) -> MtpDeployment:
    """Deploy MR-MTP on every router (ToRs keep a rack-side IP shim)."""
    if timers is None:
        timers = MtpTimers()
    liveness_cfg = resolve_liveness(liveness)
    config = MtpGlobalConfig.from_topology(topo, timers)
    derivation = WideDerivation()
    mtp_nodes: dict[str, MtpNode] = {}
    tor_stacks: dict[str, IpStack] = {}
    for index, name in enumerate(topo.routers()):
        node = topo.node(name)
        stack = None
        if node.tier == 1:
            stack = IpStack(node, forwarding=False, salt=index + 1)
            stack.install_connected_routes()
            _install_rack_host_routes(topo, name, stack)
            tor_stacks[name] = stack
        mtp_nodes[name] = MtpNode(
            node,
            config.for_node(name),
            timers=timers,
            derivation=derivation,
            stack=stack,
            exclude_interfaces=_server_facing_ports(topo, name),
            salt=index + 1,
            rng=topo.world.rng.stream(f"mtp-{name}"),
            per_packet_spray=per_packet_spray,
            liveness=liveness_cfg,
            graceful_restart=graceful_restart,
            stale_hold_us=stale_hold_us,
        )
    servers = deploy_servers(topo)
    return MtpDeployment(topo=topo, mtp_nodes=mtp_nodes,
                         tor_stacks=tor_stacks, servers=servers,
                         config=config, timers=timers,
                         liveness=liveness_cfg,
                         graceful_restart=graceful_restart)
