"""Workload-engine performance: the BENCH_workload.json generator.

Profiles the flow-level (fluid) workload engine on the paper's 8-PoD
folded-Clos fabric and records a machine-readable scaling trajectory:

* **grid** — permutation workloads at growing flow counts through the
  full pipeline (synthesize -> path resolution against the deployed
  stack's forwarding state -> epoch settlement -> tail drain), with
  each stage timed separately, plus a best-of-3 timing of the max-min
  waterfall solve alone.  ``solver_s`` is one *cold* solve: each
  repetition runs on a fresh ``FluidProblem`` over the same arrays, so
  it pays for the link->flow index the engine builds once per
  forwarding state, not only for the warm solves that reuse it.
* **headline** — the acceptance record: a 1,000,000-flow permutation
  on the 8-PoD fabric must finish end to end in under 60 s of
  single-core CPU time, with byte conservation holding.

Run::

    PYTHONPATH=src python benchmarks/bench_workload.py [--quick]

Writes ``BENCH_workload.json`` at the repository root.  ``--quick``
caps the grid at 100k flows (the CI artifact); the committed file is
regenerated with a full run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from repro.harness.experiments import build_and_converge
from repro.sim.units import MILLISECOND
from repro.topology.clos import ClosParams
from repro.workload.engine import FluidWorkload
from repro.workload.fluid import max_min_rates
from repro.workload.spec import WorkloadSpec
from repro.workload.synth import synthesize

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_workload.json"

#: the acceptance bound: 1M flows, end to end, on one core
HEADLINE_FLOWS = 1_000_000
BUDGET_S = 60.0

PODS = 8
STACK = "mtp"


def _spec(flows: int) -> WorkloadSpec:
    return WorkloadSpec(name="mega-permutation", matrix="permutation",
                        flows=flows, duration_ms=200, epoch_ms=50,
                        tenants=8)


def build_fabric(seed: int = 0):
    t0 = time.process_time()
    world, topo, deployment = build_and_converge(
        ClosParams(num_pods=PODS), STACK, seed)
    return world, topo, deployment, time.process_time() - t0


def bench_point(world, topo, deployment, flows: int) -> dict:
    """One grid point: every pipeline stage timed on the shared fabric."""
    spec = _spec(flows)

    c0 = time.process_time()
    flow_set = synthesize(spec, topo.rack_endpoints(), world.rng)
    synth_s = time.process_time() - c0

    c0 = time.process_time()
    engine = FluidWorkload(spec, topo, deployment, flows=flow_set)
    setup_s = time.process_time() - c0

    c0 = time.process_time()
    engine.start()  # includes the forwarding-state capture + path walk
    resolve_s = time.process_time() - c0

    c0 = time.process_time()
    world.run_for(spec.duration_ms * MILLISECOND)
    run_s = time.process_time() - c0

    c0 = time.process_time()
    report = engine.finish()  # final settlement + tail drain
    settle_s = time.process_time() - c0

    # the waterfall alone, everything active, best of 3; replace()
    # makes a problem with nothing cached (untimed: an argument), so
    # every repetition is a cold solve
    active = np.ones(len(flow_set), dtype=bool)
    solver_s = min(
        _timed(partial(max_min_rates, replace(engine.problem), active))
        for _ in range(3))

    total_s = synth_s + setup_s + resolve_s + run_s + settle_s
    row = {
        "flows": flows,
        "synth_s": round(synth_s, 4),
        "setup_s": round(setup_s, 4),
        "resolve_s": round(resolve_s, 4),
        "run_s": round(run_s, 4),
        "settle_s": round(settle_s, 4),
        "solver_s": round(solver_s, 4),
        "total_s": round(total_s, 4),
        "flows_per_sec": round(flows / total_s) if total_s else None,
        "completed_flows": report.completed_flows,
        "goodput_bps": report.goodput_bps,
        "peak_link_utilization": report.peak_link_utilization,
        "max_conservation_error": report.max_conservation_error,
    }
    print(f"  {flows:>9,} flows: {total_s:7.2f}s cpu  "
          f"({row['flows_per_sec']:>9,} flows/s)  "
          f"synth {synth_s:5.2f}  resolve {resolve_s:5.2f}  "
          f"settle {settle_s:5.2f}  solve {solver_s:6.3f}")
    return row


def _timed(fn) -> float:
    t0 = time.process_time()
    fn()
    return time.process_time() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="cap the grid at 100k flows (CI mode)")
    ap.add_argument("--output", type=Path, default=OUTPUT)
    args = ap.parse_args(argv)

    grid_flows = ((10_000, 100_000) if args.quick
                  else (10_000, 100_000, HEADLINE_FLOWS))

    print(f"building {PODS}-PoD folded-Clos, converging {STACK}...")
    world, topo, deployment, build_s = build_fabric()
    print(f"  built + converged in {build_s:.2f}s cpu")
    print("workload grid (permutation, process_time):")
    grid = [bench_point(world, topo, deployment, n) for n in grid_flows]

    head = grid[-1]
    doc = {
        "schema": "bench-workload/1",
        "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "fabric": {
            "topology": "clos",
            "pods": PODS,
            "routers": ClosParams(num_pods=PODS).num_routers,
            "stack": STACK,
            "build_s": round(build_s, 4),
        },
        "grid": grid,
        "headline": {
            "workload": "mega-permutation",
            "flows": head["flows"],
            "total_s": head["total_s"],
            "flows_per_sec": head["flows_per_sec"],
            "solver_s": head["solver_s"],
            "budget_s": BUDGET_S,
            "within_budget": head["total_s"] < BUDGET_S,
            "max_conservation_error": head["max_conservation_error"],
        },
    }
    args.output.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"\nwrote {args.output} "
          f"({head['flows']:,} flows in {head['total_s']}s, "
          f"budget {BUDGET_S:.0f}s, "
          f"within_budget={doc['headline']['within_budget']})")
    return 0 if doc["headline"]["within_budget"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
