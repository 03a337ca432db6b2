"""Listings 1 & 2 — configuration cost.

Paper's point: a BGP fabric needs a per-router FRR configuration whose
size grows with the router's interface count ("as the number of BGP
routers increase, the configuration required will increase linearly"),
while MR-MTP configures the *whole* DCN with one small JSON naming each
node's tier and the ToRs' rack ports.
"""

from __future__ import annotations

from repro.topology.clos import ClosParams, four_pod_params, two_pod_params
from repro.harness.experiments import run_config_cost_experiment
from repro.stacks import get_stack

from conftest import emit


def test_listing_config_cost(benchmark, results_dir):
    shapes = [("2-PoD", two_pod_params()), ("4-PoD", four_pod_params()),
              ("8-PoD", ClosParams(num_pods=8))]

    def measure():
        out = {}
        for label, params in shapes:
            for kind in ("mtp", "bgp"):
                out[(label, kind)] = run_config_cost_experiment(params, kind)
        return out

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = []
    for label, _ in shapes:
        for kind in ("mtp", "bgp"):
            r = results[(label, kind)]
            rows.append([label, get_stack(kind).display, r.routers, r.documents,
                         r.total_lines, f"{r.lines_per_router:.1f}"])
    emit(results_dir, "listing_config_cost",
         "Listings 1/2 — configuration cost",
         ["fabric", "stack", "routers", "documents", "total lines",
          "lines/router"], rows)

    for label, _ in shapes:
        mtp = results[(label, "mtp")]
        bgp = results[(label, "bgp")]
        # one document for the whole fabric vs one per router
        assert mtp.documents == 1
        assert bgp.documents == bgp.routers
        assert mtp.total_lines < bgp.total_lines

    # BGP grows linearly with routers; MR-MTP grows only by the new
    # leaves' entries in the JSON
    bgp_growth = (results[("8-PoD", "bgp")].total_lines
                  / results[("2-PoD", "bgp")].total_lines)
    mtp_growth = (results[("8-PoD", "mtp")].total_lines
                  / results[("2-PoD", "mtp")].total_lines)
    assert bgp_growth > 3.0
    assert mtp_growth < bgp_growth


def test_listing2_json_shape(benchmark):
    """The rendered MR-MTP config carries exactly the paper's fields."""
    from repro.topology.clos import build_folded_clos
    from repro.core.config import MtpGlobalConfig
    import json

    def build():
        topo = build_folded_clos(four_pod_params())
        return MtpGlobalConfig.from_topology(topo)

    config = benchmark.pedantic(build, rounds=1, iterations=1)
    doc = json.loads(config.render_json())
    topology = doc["topology"]
    assert len(topology["leaves"]) == 8
    assert set(topology["leavesNetworkPortDict"]) == set(topology["leaves"])
    assert all(v.startswith("eth") for v in
               topology["leavesNetworkPortDict"].values())
    # spines appear with their tier, nothing else is needed
    assert all(tier in (2, 3) for tier in topology["tiers"].values())
