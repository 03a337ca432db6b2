"""Engine performance trajectory: the BENCH_engine.json generator.

Profiles the event-engine hot loop and records a machine-readable
performance trajectory for the timer-wheel fast path:

* **micro** — scheduler-only workloads on the timer wheel, measured as
  best-of-N ``time.process_time`` throughput.  The headline workload is
  ``sync_timers``: every port re-arms a periodic timer *in phase*, which
  is exactly the fabric hello/keepalive pattern that dominates
  converged-fabric simulation.
* **fabric** — 8/16/32-PoD folded-Clos fabrics through the paper's
  TC1-TC4 failure cases: wall time per scenario, events processed,
  events/sec and peak event-queue depth.
* **baseline_pre_change** — frozen throughput of the pre-wheel engine
  (the heap scheduler with dataclass events and eager tracing) measured
  on the same host with the same workloads, so the speedup trajectory
  survives the old code's deletion.

Run::

    PYTHONPATH=src python benchmarks/bench_engine.py [--quick] [--profile]

Writes ``BENCH_engine.json`` at the repository root.  ``--profile``
additionally prints the cProfile top of the dispatch hot loop.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import pstats
import sys
import time
from pathlib import Path

from repro.sim.engine import Simulator
from repro.topology.clos import ClosParams
from repro.scenario import run_failure_experiment

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_engine.json"

# ----------------------------------------------------------------------
# Frozen pre-change baseline: the seed engine (heap scheduler, dataclass
# events, eager tracing) on these exact workloads, best-of-5
# process_time on the reference 1-core host.  Regenerating the file does
# NOT remeasure these — the old engine no longer exists in the tree.
# ----------------------------------------------------------------------
BASELINE_PRE_CHANGE = {
    "engine": "pre-wheel heap scheduler (seed engine)",
    "method": "best-of-5 time.process_time, interleaved A/B on one host",
    "events_per_sec": {
        "sync_timers_1024": 205_494,
        "dispatch": 310_633,
        "churn": 110_594,
        "bfd_churn": 128_505,
        "flood": 147_895,
    },
}


# ----------------------------------------------------------------------
# micro workloads (scheduler-only; no protocols, no tracing)
# ----------------------------------------------------------------------
def bench_sync_timers(n: int, ports: int = 1024) -> float:
    """The headline: every port fires a periodic timer *in phase* — the
    converged-fabric hello pattern (large same-tick batches)."""
    sim = Simulator()
    schedule_after = sim.schedule_after

    def tick():
        schedule_after(10_000, tick)

    for _ in range(ports):
        schedule_after(10_000, tick)
    t0 = time.process_time()
    sim.run(max_events=n)
    return sim.events_processed / (time.process_time() - t0)


def bench_dispatch(n: int) -> float:
    """Tight self-rescheduling timers: pure schedule+dispatch cost."""
    sim = Simulator()
    schedule_after = sim.schedule_after

    def tick():
        schedule_after(7, tick)

    for i in range(64):
        schedule_after(i, tick)
    t0 = time.process_time()
    sim.run(max_events=n)
    return sim.events_processed / (time.process_time() - t0)


def bench_churn(n: int, ports: int = 512) -> float:
    """Staggered keepalive re-arm: every hello cancels and replaces a
    far-out dead timer, so tombstones accumulate in the queue."""
    sim = Simulator()
    schedule_after = sim.schedule_after

    def expire():
        pass

    def mk(i):
        holder = [None]

        def keepalive():
            h = holder[0]
            if h is not None:
                h.cancel()
            holder[0] = schedule_after(3_000_000, expire)
            schedule_after(1000 + i, keepalive)

        return keepalive

    for i in range(ports):
        schedule_after(i, mk(i))
    t0 = time.process_time()
    sim.run(max_events=n)
    return sim.events_processed / (time.process_time() - t0)


def bench_bfd_churn(n: int, ports: int = 512) -> float:
    """Hello every 10ms, dead timer 30ms out, reset on every hello —
    the BFD reachable-state pattern; tombstones actually traverse the
    queue before being discarded."""
    sim = Simulator()
    schedule_after = sim.schedule_after

    def expire():
        pass

    def mk(i):
        holder = [None]

        def hello():
            h = holder[0]
            if h is not None:
                h.cancel()
            holder[0] = schedule_after(30_000, expire)
            schedule_after(10_000 + i, hello)

        return hello

    for i in range(ports):
        schedule_after(i, mk(i))
    t0 = time.process_time()
    sim.run(max_events=n)
    return sim.events_processed / (time.process_time() - t0)


def bench_flood(n: int) -> float:
    """Adversarial for the wheel: uniformly random far-horizon inserts
    (maximal cascading, minimal batching)."""
    import random

    sim = Simulator()
    rng = random.Random(7)
    cb = (lambda: None)
    t0 = time.process_time()
    for _ in range(n):
        sim.schedule_at(rng.randrange(0, 10_000_000), cb)
    sim.run()
    return n / (time.process_time() - t0)


MICRO = {
    "sync_timers_1024": (bench_sync_timers, 200_000),
    "dispatch": (bench_dispatch, 150_000),
    "churn": (bench_churn, 250_000),
    "bfd_churn": (bench_bfd_churn, 200_000),
    "flood": (bench_flood, 150_000),
}


def run_micro(repeats: int, scale: float) -> dict:
    out: dict[str, dict] = {}
    for name, (fn, n) in MICRO.items():
        n = max(10_000, int(n * scale))
        best = max(fn(n) for _ in range(repeats))
        entry = {"events": n, "events_per_sec": {"wheel": round(best)}}
        base = BASELINE_PRE_CHANGE["events_per_sec"].get(name)
        if base:
            entry["speedup_vs_pre_change"] = round(best / base, 2)
        out[name] = entry
        print(f"  {name:18s} wheel {best:>10,.0f}/s"
              + (f"  ({entry.get('speedup_vs_pre_change', '-')}x vs seed)"
                 if base else ""))
    return out


# ----------------------------------------------------------------------
# fabric grid: PoD scale x failure case
# ----------------------------------------------------------------------
def run_fabric(pods_list, cases) -> list[dict]:
    rows = []
    for pods in pods_list:
        params = ClosParams(num_pods=pods)
        for case in cases:
            t0 = time.perf_counter()
            c0 = time.process_time()
            result, world = run_failure_experiment(
                params, "mtp", case, seed=0, return_world=True)
            cpu_s = time.process_time() - c0
            wall_s = time.perf_counter() - t0
            events = world.sim.events_processed
            rows.append({
                "pods": pods,
                "routers": params.num_routers,
                "case": case,
                "wall_s": round(wall_s, 4),
                "cpu_s": round(cpu_s, 4),
                "events": events,
                "events_per_sec": round(events / cpu_s) if cpu_s else None,
                "peak_queue_depth": world.sim.peak_queue_depth,
                "convergence_us": result.convergence_us,
            })
            print(f"  {pods:>2} PoD {case}: {wall_s:7.3f}s wall  "
                  f"{events:>8,} events  "
                  f"{rows[-1]['events_per_sec']:>8,}/s  "
                  f"peak depth {world.sim.peak_queue_depth:,}")
    return rows


def profile_hot_loop() -> None:
    prof = cProfile.Profile()
    prof.enable()
    bench_dispatch(300_000)
    prof.disable()
    stats = pstats.Stats(prof, stream=sys.stdout)
    stats.sort_stats("cumulative").print_stats(12)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="1 repeat, smaller workloads, fabric up to 8 PoD")
    ap.add_argument("--profile", action="store_true",
                    help="print the cProfile top of the dispatch hot loop")
    ap.add_argument("--output", type=Path, default=OUTPUT)
    args = ap.parse_args(argv)

    repeats = 1 if args.quick else 4
    scale = 0.25 if args.quick else 1.0
    pods_list = (2, 8) if args.quick else (8, 16, 32)
    cases = ("TC1", "TC2", "TC3", "TC4")

    print("engine microbenchmarks "
          f"(best of {repeats}, process_time):")
    micro = run_micro(repeats, scale)
    print("fabric grid (mtp, seed 0):")
    fabric = run_fabric(pods_list, cases)

    if args.profile:
        print("\ndispatch hot-loop profile:")
        profile_hot_loop()

    headline = micro["sync_timers_1024"]
    doc = {
        "schema": "bench-engine/1",
        "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "baseline_pre_change": BASELINE_PRE_CHANGE,
        "micro": micro,
        "fabric": fabric,
        "headline": {
            "workload": "sync_timers_1024",
            "events_per_sec": headline["events_per_sec"]["wheel"],
            "speedup_vs_pre_change": headline.get("speedup_vs_pre_change"),
        },
    }
    args.output.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"\nwrote {args.output} "
          f"(headline {doc['headline']['speedup_vs_pre_change']}x on "
          f"{doc['headline']['workload']})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
