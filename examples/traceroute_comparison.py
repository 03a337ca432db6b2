#!/usr/bin/env python3
"""Ping and traceroute through both fabrics.

Shows a qualitative difference the paper implies but never draws: under
BGP the fabric is a chain of IP routers (traceroute reveals five hops);
under MR-MTP the fabric forwards encapsulated frames without touching
the inner IP header — one logical hop, like the VXLAN overlay the paper
assumes for inter-rack VM traffic (section III.A).

Run:  python examples/traceroute_comparison.py
"""

from repro.harness.experiments import build_and_converge
from repro.iputil.probes import Pinger, Traceroute
from repro.sim.units import SECOND
from repro.topology.clos import two_pod_params
from repro.stacks import get_stack


def probe(kind: str) -> None:
    print(f"===== {get_stack(kind).display} =====")
    world, topo, dep = build_and_converge(two_pod_params(), kind)
    src = topo.first_server_of(topo.tors[0][0][0])
    dst = topo.first_server_of(topo.tors[0][1][1])
    dst_ip = topo.server_address(dst)
    stack = dep.servers[src].stack

    ping_done = []
    Pinger(stack, dst_ip, count=5, on_done=ping_done.append).start()
    world.run_for(3 * SECOND)
    result = ping_done[0]
    print(f"ping {dst_ip}: {result.received}/{result.sent} replies, "
          f"avg rtt {result.avg_rtt_us / 1000:.3f} ms")

    trace = Traceroute(stack, dst_ip)
    trace.start()
    world.run_for(15 * SECOND)
    print(trace.render())
    print()


def main() -> None:
    for kind in ("bgp", "mtp"):
        probe(kind)
    print("note: MR-MTP spines never decrement the inner TTL — the whole")
    print("fabric is one IP hop, which is also why it needs no ARP, no IP")
    print("addressing and no routing protocol between the spines.")


if __name__ == "__main__":
    main()
