"""Benchmark child: one fresh interpreter per measurement.

``run.py`` spawns this file with a scrubbed environment.  It is the only
benchmark file that imports ``repro``; everything it learns goes back to
the parent as one JSON document on stdout.  Two modes:

``run``    import ``repro.cli``, call ``main(argv)`` with its stdout
           captured, and time that call (optionally under ``cProfile``,
           rolled up by ``rollup.py``).
``probe``  the outside timers: ``import repro.cli`` alone, a
           ``build_topology`` of the workload's fabric, and a
           scheduler-only event loop through the ``Simulator`` API.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time

#: scheduler probe shape: every port re-arms a periodic timer in phase,
#: the converged-fabric hello pattern (large same-tick batches)
SCHED_PROBE_TIMERS = 1024
SCHED_PROBE_EVENTS = 200_000


def _cpu_s() -> float:
    """CPU seconds of this process and of every child it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _peak_rss_kb() -> int:
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def run(argv: list[str], profile: bool) -> dict:
    from repro.cli import main

    captured = io.StringIO()
    profiler = None
    if profile:
        import cProfile
        profiler = cProfile.Profile(builtins=False)
    # CLOCK_MONOTONIC is system-wide on Linux, so the parent can subtract
    # its own reading taken just before the spawn: that is setup_s
    entry_mono = time.monotonic()
    cpu0, wall0 = _cpu_s(), time.perf_counter()
    with contextlib.redirect_stdout(captured):
        if profiler is not None:
            exit_code = profiler.runcall(main, argv)
        else:
            exit_code = main(argv)
    wall_s = time.perf_counter() - wall0
    cpu_s = _cpu_s() - cpu0
    result = {
        "entry_mono": entry_mono,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_kb": _peak_rss_kb(),
        "exit_code": exit_code,
        "stdout": captured.getvalue(),
    }
    if profiler is not None:
        import pstats

        import rollup
        result["profile"] = rollup.roll_up(pstats.Stats(profiler).stats)
    return result


def probe(pods: int) -> dict:
    t0 = time.perf_counter()
    import repro.cli  # noqa: F401  (the import is what is being timed)
    import_s = time.perf_counter() - t0

    from repro.sim.engine import Simulator
    from repro.topology import build_topology, get_topology

    t0 = time.perf_counter()
    build_topology(get_topology("clos").spec(num_pods=pods))
    build_s = time.perf_counter() - t0

    sim = Simulator()
    schedule_after = sim.schedule_after
    fired = 0

    def tick():
        nonlocal fired
        fired += 1
        schedule_after(10_000, tick)

    for _ in range(SCHED_PROBE_TIMERS):
        schedule_after(10_000, tick)
    t0 = time.process_time()
    sim.run(max_events=SCHED_PROBE_EVENTS)
    sched_s = time.process_time() - t0
    return {"import_s": import_s, "topology_build_s": build_s,
            "sched_probe_eps": fired / sched_s}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--argv", required=True,
                       help="JSON list: the argv handed to repro.cli.main")
    p_run.add_argument("--profile", action="store_true")
    p_probe = sub.add_parser("probe")
    p_probe.add_argument("--pods", type=int, required=True)
    args = parser.parse_args()
    if args.mode == "run":
        result = run(json.loads(args.argv), args.profile)
    else:
        result = probe(args.pods)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
