"""Static path tracing through a converged deployment.

A stack says where a frame goes in one place,
:meth:`repro.stacks.Deployment.fluid_candidates`; :func:`live_hops`
turns that candidate set into the hops a frame really takes (or the
drops it meets), and every forwarding walk reads it: :func:`trace_path`
(one flow, hashed at each hop the way the data plane hashes it), the
fluid workload engine (every flow at once) and the exact rack-pair
verdict of :mod:`repro.harness.oracle` (every ECMP choice).  A traffic
burst with ``via`` uses the trace to pick a flow (source port) whose
path crosses the link under test — the paper's test cases presuppose
the failure sits on the measured traffic's path.
"""

from __future__ import annotations

from typing import Optional

from repro.stack.addresses import Ipv4Address
from repro.stack.ipv4 import PROTO_UDP
from repro.routing.ecmp import FlowKey, ecmp_hash

#: a walk deeper than this many fabric hops is a routing loop
MAX_TRACE_HOPS = 32


def _flow(src_ip: Ipv4Address, dst_ip: Ipv4Address,
          src_port: int, dst_port: int) -> FlowKey:
    return FlowKey(src=src_ip.value, dst=dst_ip.value, proto=PROTO_UDP,
                   src_port=src_port, dst_port=dst_port)


def access_uplink(topo, host: str):
    """A server's access hop as ``(host interface, ToR interface)`` —
    the one wired path every flow to or from ``host`` crosses.  Shared
    by the per-packet tracer below and the fluid workload engine, so
    both resolve the rack edge identically."""
    host_iface = topo.node(host).interfaces["eth1"]
    return host_iface, host_iface.peer()


def live_hops(deployment, node: str, dst_tor: str,
              ingress: Optional[str]) -> tuple[int, bool, tuple]:
    """``(salt, spray, hops)`` at ``node`` toward rack ``dst_tor`` for a
    frame that arrived on port ``ingress`` (None at the source ToR):
    one ``(egress, leaves, peer)`` per candidate port, in the order the
    data plane balances over.  ``leaves`` is False when the frame never
    leaves the node (a downed or uncabled egress); ``peer`` is the
    interface that receives it, None when it is dropped — at home, or
    at an admin-down far end.  No candidate at all is a drop too."""
    salt, spray, ports = deployment.fluid_candidates(node, dst_tor, ingress)
    interfaces = deployment.topo.node(node).interfaces
    hops = []
    for port in ports:
        egress = interfaces[port]
        if not egress.admin_up or egress.link is None:
            hops.append((egress, False, None))
            continue
        peer = egress.peer()
        hops.append((egress, True,
                     peer if peer is not None and peer.admin_up else None))
    return salt, spray, tuple(hops)


def trace_path(
    deployment,
    src_host: str,
    dst_host: str,
    src_port: int,
    dst_port: int = 7777,
) -> list[str]:
    """Node names visited from the source server to the destination
    server (inclusive): at each hop the candidate the keyed ECMP hash
    names (a sprayed flow too).  Reads forwarding state and changes
    none.  Raises RuntimeError where the frame is dropped or loops."""
    topo = deployment.topo
    flow = _flow(topo.server_address(src_host), topo.server_address(dst_host),
                 src_port, dst_port)
    node = access_uplink(topo, src_host)[1].node.name
    dst_tor = access_uplink(topo, dst_host)[1].node.name
    path = [src_host, node]
    ingress = None
    for _ in range(MAX_TRACE_HOPS):
        if node == dst_tor:
            path.append(dst_host)
            return path
        salt, _, hops = live_hops(deployment, node, dst_tor, ingress)
        if not hops:
            raise RuntimeError(f"path dead-ends at {node} (no path)")
        egress, leaves, peer = hops[ecmp_hash(flow, len(hops), salt)]
        if peer is None:
            where = "far end down" if leaves else "egress down"
            raise RuntimeError(f"path dead-ends at {node}:{egress.name} "
                               f"({where})")
        node, ingress = peer.node.name, peer.name
        path.append(node)
    raise RuntimeError(f"path exceeds {MAX_TRACE_HOPS} hops: {path}")


def path_crosses_link(path: list[str], node_a: str, node_b: str) -> bool:
    """True when the path traverses the (node_a, node_b) link."""
    for here, there in zip(path, path[1:]):
        if {here, there} == {node_a, node_b}:
            return True
    return False


def find_crossing_flow(
    deployment,
    src_host: str,
    dst_host: str,
    link_a: str,
    link_b: str,
    dst_port: int = 7777,
    port_range: range = range(40000, 40256),
) -> Optional[int]:
    """A source port whose flow crosses the given link, or None.

    A flow whose forwarding state dead-ends (a blackholed pair — e.g.
    MR-MTP cross-cell traffic on a recursive fabric) cannot cross the
    link, so the search skips it; callers that need a path to *exist*
    use :func:`trace_path` directly and get the loud failure."""
    for src_port in port_range:
        try:
            path = trace_path(deployment, src_host, dst_host,
                              src_port, dst_port)
        except RuntimeError:
            continue
        if path_crosses_link(path, link_a, link_b):
            return src_port
    return None
