"""The MR-MTP family: ``mtp`` and its variants.

Deploys the multi-root meshed-tree protocol on every router (ToRs keep a
rack-side IP shim), renders Listing 2's fabric-wide JSON, and derives
the family's timer bounds (see :mod:`repro.stacks.base` for the family
contract).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.core.config import MtpGlobalConfig
from repro.core.protocol import STALE_HOLD_US, MtpNode
from repro.core.vid import WideDerivation
from repro.iputil.stack import IpStack
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
    """The dead interval — or, with adaptive liveness, its widening
    ceiling: detection can legitimately take up to ``max_scale`` x the
    dead interval on a measured-lossy link."""
    liveness = resolve_liveness(params.get("liveness"))
    if liveness is not None and liveness.adaptive_timers:
        return int(timers.mtp.dead_us * liveness.max_scale)
    return timers.mtp.dead_us


def stale_hold_us(timers: StackTimers, params: Mapping[str, Any]) -> int:
    """How long a graceful-restart helper keeps forwarding on a silent
    neighbor's tree state after detecting it (0 without graceful
    restart)."""
    if not params.get("graceful_restart"):
        return 0
    hold = params.get("stale_hold_us")
    return STALE_HOLD_US if hold is None else hold


def keepalive_period_us(timers: StackTimers,
                        params: Mapping[str, Any]) -> int:
    return timers.mtp.hello_us


@dataclass(kw_only=True)
class MtpDeployment(Deployment):
    mtp_nodes: dict[str, MtpNode]
    tor_stacks: dict[str, IpStack]
    config: MtpGlobalConfig

    @property
    def agents(self) -> dict[str, MtpNode]:
        return self.mtp_nodes

    def forwarding_tables(self) -> dict[str, object]:
        return {name: mtp.table for name, mtp in self.mtp_nodes.items()}

    def update_categories(self) -> tuple[str, ...]:
        return ("mtp.update.tx",)

    def keepalive_period_us(self) -> int:
        return keepalive_period_us(self.timers, {})

    def detection_bound_us(self) -> int:
        return detection_bound_us(self.timers, {"liveness": self.liveness})

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


def _server_facing_ports(topo: Topology, router: str) -> list[str]:
    node = topo.node(router)
    return [
        iface.name
        for iface in node.interfaces.values()
        if iface.peer() is not None and iface.peer().node.tier == TIER_SERVER
    ]


def deploy(
    topo: Topology,
    timers: Optional[StackTimers] = None,
    *,
    per_packet_spray: bool = False,
    liveness: LivenessParam = False,
    graceful_restart: bool = False,
    stale_hold_us: Optional[int] = None,
) -> MtpDeployment:
    """Deploy MR-MTP on every router (ToRs keep a rack-side IP shim)."""
    if timers is None:
        timers = StackTimers()
    liveness_cfg = resolve_liveness(liveness)
    config = MtpGlobalConfig.from_topology(topo, timers.mtp)
    derivation = WideDerivation()
    mtp_nodes: dict[str, MtpNode] = {}
    tor_stacks: dict[str, IpStack] = {}
    for index, name in enumerate(topo.routers()):
        node = topo.node(name)
        stack = None
        if node.tier == 1:
            stack = IpStack(node, forwarding=False, salt=index + 1)
            stack.install_connected_routes()
            install_rack_host_routes(topo, name, stack)
            tor_stacks[name] = stack
        mtp_nodes[name] = MtpNode(
            node,
            config.for_node(name),
            timers=timers.mtp,
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


def render_config(topo: Topology, timers: Optional[StackTimers] = None,
                  node: Optional[str] = None, **params: Any) -> str:
    """Listing 2: the single fabric-wide JSON document."""
    bundle = timers if timers is not None else StackTimers()
    return MtpGlobalConfig.from_topology(topo, bundle.mtp).render_json()
