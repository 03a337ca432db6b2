"""Static path tracing through a converged deployment.

Replays each hop's forwarding decision (BGP: FIB lookup + ECMP hash;
MR-MTP: VID-table / hashed-up decision) without sending packets.  A
traffic burst with ``via`` uses this to pick a flow (source port) whose
path crosses the link under test — the paper's test cases presuppose the
failure sits on the measured traffic's path — and the ``reachability``
op checks every rack pair with it (:func:`check_all_pairs`).

Stack-agnostic: the per-hop decision replay lives on the deployment
(:meth:`repro.stacks.Deployment.trace_fabric_path`), so any registered
stack traces without changes here.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.stack.addresses import Ipv4Address
from repro.stack.ipv4 import PROTO_UDP
from repro.routing.ecmp import FlowKey

MAX_HOPS = 32


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


def trace_path(
    deployment,
    src_host: str,
    dst_host: str,
    src_port: int,
    dst_port: int = 7777,
) -> list[str]:
    """Node names visited from the source server to the destination
    server (inclusive).  Raises if the path dead-ends or loops."""
    topo = deployment.topo
    src_ip = topo.server_address(src_host)
    dst_ip = topo.server_address(dst_host)
    flow = _flow(src_ip, dst_ip, src_port, dst_port)
    # server -> its ToR
    _, tor_iface = access_uplink(topo, src_host)
    path = [src_host, tor_iface.node.name]
    return deployment.trace_fabric_path(path, dst_ip, dst_host, flow)


def check_all_pairs(
    deployment,
    topo,
    probe_ports: Iterable[int] = (40000, 40001, 40002, 40003),
) -> tuple[int, list[tuple[str, str, str]]]:
    """Trace several flows between every ordered rack pair; return the
    pairs checked and ``(src_tor, dst_tor, error)`` for each pair one of
    whose flows dead-ends or loops."""
    unreachable = []
    tors = topo.all_tors()
    pairs = [(a, b) for a in tors for b in tors if a != b]
    for src_tor, dst_tor in pairs:
        src = topo.first_server_of(src_tor)
        dst = topo.first_server_of(dst_tor)
        for port in probe_ports:
            try:
                trace_path(deployment, src, dst, src_port=port)
            except RuntimeError as exc:
                unreachable.append((src_tor, dst_tor, str(exc)))
                break
    return len(pairs), unreachable


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
