"""Extension — scalability beyond the paper's testbed (section IX).

The paper's FABRIC reservation capped the evaluation at 4 PoDs and 3
tiers; its future work calls for scaling the DCN "to multiple tiers
using Mininet".  The simulator removes the cap: this bench sweeps the
PoD count — MR-MTP to 128 PoDs and BGP/ECMP/BFD to 64, where a healthy
link costs the simulator next to nothing (DESIGN "Steady-state frame
path"), plain BGP to 16 — and adds a 4-tier (two-zone, super-spine)
fabric, tracking the trends the paper predicts: MR-MTP's convergence
stays flat (dead-timer dominated) while BGP's control overhead keeps
growing with fabric size.
"""

from __future__ import annotations

import math
import time

from repro.sim.units import MILLISECOND
from repro.stacks import get_stack
from repro.topology.clos import ClosParams
from repro.harness.experiments import build_and_converge
from repro.scenario import run_failure_experiment

from conftest import emit

POD_SWEEP = {"mtp": (2, 4, 8, 16, 32, 64, 128), "bgp": (2, 4, 8, 16),
             "bgp-bfd": (2, 4, 8, 16, 32, 64)}


def fitted_exponent(xs, ys) -> float:
    """Least-squares slope of log y on log x: y ~ x ** slope."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def test_ext_pod_sweep(benchmark, results_dir):
    def measure():
        out = {}
        for stack, sweep in POD_SWEEP.items():
            for pods in sweep:
                begin = time.perf_counter()
                result, world = run_failure_experiment(
                    ClosParams(num_pods=pods), stack, "TC1",
                    return_world=True)
                out[(pods, stack)] = (result, world.sim.events_scheduled,
                                      time.perf_counter() - begin)
        return out

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    order = sorted(results,
                   key=lambda key: (key[0], list(POD_SWEEP).index(key[1])))
    rows = [
        [pods, get_stack(stack).display, f"{result.convergence_ms:.2f}",
         result.control_bytes, result.blast_radius, events, f"{host_s:.2f}"]
        for (pods, stack) in order
        for result, events, host_s in [results[(pods, stack)]]
    ]
    exponents = {
        stack: fitted_exponent(sweep,
                               [results[(p, stack)][2] for p in sweep])
        for stack, sweep in POD_SWEEP.items()}
    emit(results_dir, "ext_scalability_pods",
         "Extension — TC1 metrics vs PoD count (3-tier)",
         ["pods", "stack", "conv ms", "ctrl B", "blast", "events", "host s"],
         rows,
         note="host s ~ pods^k (build + converge + one TC1 run): "
              + ", ".join(f"k = {k:.2f} for {get_stack(s).display}"
                          for s, k in exponents.items()))

    # MR-MTP convergence stays dead-timer-flat as the fabric grows
    mtp_convs = [results[(p, "mtp")][0].convergence_us
                 for p in POD_SWEEP["mtp"]]
    assert max(mtp_convs) - min(mtp_convs) < 10 * MILLISECOND
    # control overhead grows with fabric size for both, BGP faster
    for stack, sweep in POD_SWEEP.items():
        ctrl = [results[(p, stack)][0].control_bytes for p in sweep]
        assert ctrl == sorted(ctrl), f"{stack} overhead must be monotone"

    def gap(pods):
        return (results[(pods, "bgp")][0].control_bytes
                / results[(pods, "mtp")][0].control_bytes)

    assert gap(16) >= gap(2) * 0.9, "the BGP:MTP overhead gap must not shrink"
    # a healthy link costs nothing: MR-MTP's events are its bring-up and
    # the failure's blast radius, which grow no faster than the fabric
    assert results[(128, "mtp")][1] <= 64 * results[(2, "mtp")][1]


def test_ext_four_tier_fabric(benchmark, results_dir):
    """Two zones stitched by super-spines: MR-MTP's VID scheme 'can
    easily scale to any number of spine tiers' (paper section III.B)."""
    params = ClosParams(num_pods=2, zones=2, supers_per_group=2)

    def measure():
        out = {}
        for kind in ("mtp", "bgp"):
            world, topo, dep = build_and_converge(
                params, kind, max_converge_us=120_000_000)
            if kind == "mtp":
                supers = topo.all_supers()
                depth = max(
                    v.depth
                    for s in supers
                    for v in dep.mtp_nodes[s].table.all_vids()
                )
                entries = dep.mtp_nodes[supers[0]].table.entry_count()
            else:
                depth = 0
                entries = len(dep.stacks[topo.all_supers()[0]].table)
            result = run_failure_experiment(params, kind, "TC1")
            out[kind] = (depth, entries, result)
        return out

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [
        [get_stack(kind).display, depth, entries,
         f"{res.convergence_ms:.2f}", res.control_bytes]
        for kind, (depth, entries, res) in results.items()
    ]
    emit(results_dir, "ext_four_tier",
         "Extension — 4-tier (2-zone) fabric, TC1",
         ["stack", "super VID depth", "super entries", "conv ms", "ctrl B"],
         rows)

    depth, entries, mtp_result = results["mtp"]
    # VIDs one tier deeper: root.torport.aggport.topport
    assert depth == 4
    # every super-spine meshes all 8 ToR trees
    assert entries >= 8
    # convergence still dead-timer bound
    assert mtp_result.convergence_us <= 120 * MILLISECOND
    _, _, bgp_result = results["bgp"]
    assert mtp_result.control_bytes < bgp_result.control_bytes
