#!/usr/bin/env python3
"""Quickstart: build the paper's 2-PoD folded-Clos, run MR-MTP on it,
send traffic between racks, and look at the state the protocol built.

Run:  python examples/quickstart.py
"""

from repro.harness.convergence import converge_from_cold
from repro.stacks import mtp
from repro.net.world import World
from repro.sim.units import SECOND
from repro.topology.clos import build_folded_clos, two_pod_params
from repro.topology.validate import validate_topology
from repro.traffic.generator import ReceiverAnalyzer, TrafficSender


def main() -> None:
    # 1. Build the fabric: 2 PoDs x (2 ToRs + 2 aggs) + 4 top spines,
    #    one server per rack, rack subnets 192.168.11-14.0/24.
    world = World(seed=42)
    topo = build_folded_clos(two_pod_params(), world=world)
    validate_topology(topo)
    print(topo.describe())
    print()

    # 2. Deploy MR-MTP everywhere (one JSON document configures the DCN)
    deployment = mtp.deploy(topo)
    print("MR-MTP configuration for the whole fabric (Listing 2):")
    print(deployment.config.render_json())
    print()

    # 3. Converge from cold: trees grow from every ToR and mesh at the
    #    spines, until every router has a forwarding candidate toward
    #    every other rack (deployment.ready()).
    deployment.start()
    converge_from_cold(world, deployment)
    print(f"converged at t = {world.sim.now / 1e6:.3f} s (simulated)")
    print()

    # 4. Inspect the meshed-tree state.
    for tor in topo.all_tors():
        agent = deployment.mtp_nodes[tor]
        print(f"{tor}: ToR VID {agent.own_root} "
              f"(derived from {topo.rack_subnet[tor]})")
    print()
    top = topo.tops[0][0][0]
    print(f"VID table at top spine {top} (Listing 5 shape):")
    print(deployment.mtp_nodes[top].table.render())
    print()

    # 5. Send traffic between the first and last racks.
    src = topo.first_server_of(topo.tors[0][0][0])
    dst = topo.first_server_of(topo.tors[0][1][1])
    sender = TrafficSender(deployment.servers[src].udp,
                           topo.server_address(dst), gap_us=1000)
    analyzer = ReceiverAnalyzer(deployment.servers[dst].udp)
    sender.start(count=1000)
    world.run_for(2 * SECOND)
    print(f"traffic {src} -> {dst}: {analyzer.report(sender)}")


if __name__ == "__main__":
    main()
