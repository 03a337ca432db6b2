"""Property-based whole-fabric invariants.

Hypothesis draws folded-Clos shapes and flows; for each we assert the
paper's structural claims: the meshed trees always complete, every VID
encodes a real path, forwarding is loop-free and valley-free, and both
protocols deliver between any pair of racks.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.harness.convergence import converge_from_cold
from repro.stacks import mtp
from repro.harness.experiments import build_and_converge
from repro.harness.pathtrace import trace_path
from repro.net.world import World
from repro.topology.clos import ClosParams, build_folded_clos

SHAPES = st.builds(
    ClosParams,
    num_pods=st.integers(min_value=2, max_value=4),
    tors_per_pod=st.integers(min_value=1, max_value=3),
    aggs_per_pod=st.integers(min_value=1, max_value=3),
    tops_per_plane=st.integers(min_value=1, max_value=2),
)


def converged_mtp(params: ClosParams):
    world = World(seed=11)
    topo = build_folded_clos(params, world=world)
    dep = mtp.deploy(topo)
    dep.start()
    converge_from_cold(world, dep)
    return world, topo, dep


@given(params=SHAPES)
def test_meshed_trees_always_complete(params):
    """Every top spine ends up holding one VID per ToR of its planes'
    pods — for any fabric shape."""
    world, topo, dep = converged_mtp(params)
    all_roots = set(topo.tor_vid_seed.values())
    for top in topo.all_tops():
        assert dep.mtp_nodes[top].table.roots() == all_roots
    # every agg holds exactly its pod's roots
    for z, zone in enumerate(topo.aggs):
        for p, pod in enumerate(zone):
            pod_roots = {topo.tor_vid_seed[t] for t in topo.tors[z][p]}
            for agg in pod:
                assert dep.mtp_nodes[agg].table.roots() == pod_roots


@given(params=SHAPES)
def test_vids_encode_real_paths(params):
    """A VID's components are the actual port numbers along its path
    from the root (the self-describing-path property of section III.B)."""
    world, topo, dep = converged_mtp(params)
    tor_by_root = {topo.tor_vid_seed[t]: t for t in topo.all_tors()}
    for name in topo.all_aggs() + topo.all_tops():
        mtp = dep.mtp_nodes[name]
        for port, peer_node in _port_peers(topo, name):
            for vid in mtp.table.vids_on(port):
                # walk the VID's ports down from the root and confirm we
                # arrive at this node
                current = tor_by_root[vid.root]
                for hop_port in vid.parts[1:]:
                    iface = topo.node(current).interfaces[f"eth{hop_port}"]
                    assert iface.peer() is not None, (vid, current)
                    current = iface.peer().node.name
                assert current == name, (str(vid), name)


def _port_peers(topo, name):
    node = topo.node(name)
    for iface in node.interfaces.values():
        peer = iface.peer()
        if peer is not None:
            yield iface.name, peer.node.name


@given(params=SHAPES, src_port=st.integers(min_value=40000, max_value=40963))
def test_mtp_forwarding_loop_free_and_valley_free(params, src_port):
    """Any flow between the first and last racks follows a strictly
    up-then-down tier profile and terminates."""
    world, topo, dep = converged_mtp(params)
    src = topo.first_server_of(topo.tors[0][0][0])
    dst = topo.first_server_of(topo.tors[0][-1][-1])
    path = trace_path(dep, src, dst, src_port)
    assert path[0] == src and path[-1] == dst
    assert len(path) == len(set(path)), f"loop in {path}"
    tiers = [topo.node(n).tier for n in path]
    peak = tiers.index(max(tiers))
    assert tiers[:peak] == sorted(tiers[:peak]), f"not rising: {tiers}"
    assert tiers[peak:] == sorted(tiers[peak:], reverse=True), \
        f"not falling: {tiers}"


@given(params=SHAPES)
def test_bgp_fib_complete_on_any_shape(params):
    world, topo, dep = build_and_converge(params, "bgp", seed=13)
    for name, stack in dep.stacks.items():
        for subnet in topo.rack_subnet.values():
            assert stack.table.lookup(subnet.host(1)) is not None, (
                f"{name} missing {subnet}")


@given(
    params=SHAPES,
    src_port=st.integers(min_value=40000, max_value=40963),
)
def test_bgp_and_mtp_choose_equal_length_paths(params, src_port):
    """Both protocols route rack-to-rack over minimal Clos paths, so the
    hop counts agree for every flow."""
    world_b, topo_b, dep_b = build_and_converge(params, "bgp", seed=13)
    world_m, topo_m, dep_m = converged_mtp(params)
    src_b = topo_b.first_server_of(topo_b.tors[0][0][0])
    dst_b = topo_b.first_server_of(topo_b.tors[0][-1][-1])
    path_bgp = trace_path(dep_b, src_b, dst_b, src_port)
    path_mtp = trace_path(dep_m, src_b, dst_b, src_port)
    assert len(path_bgp) == len(path_mtp)
