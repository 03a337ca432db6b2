#!/usr/bin/env python3
"""The repo's benchmark: five workloads, four timed end-to-end metrics
plus the failed-op count, and a per-layer table.

    python3 bench/run.py                        # every workload, timed + traced
    python3 bench/run.py --workload load-1m --seed 3 --seconds 24 --trace 0
    python3 bench/run.py --selfcheck            # two interleaved sets, same code
    python3 bench/run.py --out FILE             # also write the full document

Closed loop, one client: each measurement is one fresh child interpreter
(``worker.py``) that imports ``repro.cli`` and calls ``main(argv)``.  The
program sees only that argv and the scenario files under
``bench/inputs/``.  What is run and reported is declared in ``spec.py``;
``README.md`` is the glossary.  With ``--workload`` the last stdout line
is the result object of the builder's contract; the exit code is
non-zero when an output was wrong or the simulator was not
deterministic.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spec
from rollup import SPANS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
#: scratch for cache dirs; inside the checkout, removed on exit
WORK = ROOT / ".bench_work" / str(os.getpid())

CHILD_TIMEOUT_S = 150
#: extra ``stacks --json`` children per run, so ``setup_s`` is a median
#: over several set-ups even when only one or two repeats fit
SETUP_PROBES = 5
STARTUP_ARGV = ["stacks", "--json"]

SCRUBBED = sorted(k for k in os.environ if k.startswith("REPRO_"))


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    # str hashes feed set/dict order; pinning them removes one source of
    # run-to-run timing noise without touching what is simulated
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str]) -> tuple[dict | None, float, float]:
    """Run ``worker.py`` once.  Returns its JSON document (None if it
    crashed or timed out), the timestamp just before the spawn and the
    wall time until it exited."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *args], cwd=ROOT,
        env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out, err = "", f"timed out after {CHILD_TIMEOUT_S} s"
    finally:
        # the child leads its own process group: take pool workers with it
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    elapsed = time.monotonic() - t_spawn
    if proc.returncode != 0 or not out:
        print(f"bench: worker {args[0]} failed (exit {proc.returncode}): "
              f"{err.strip()[-2000:]}", file=sys.stderr)
        return None, t_spawn, elapsed
    return json.loads(out), t_spawn, elapsed


# ----------------------------------------------------------------------
# one measured run of a workload, and its correctness gate
# ----------------------------------------------------------------------
@dataclass
class Sample:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    failures: tuple[str, ...] = ()
    failed: int = 0
    model: dict | None = None   # simulated statistics + model_digest
    flows: int = 0
    profile: dict | None = None
    replay_s: float = 0.0
    cache_entries: int = 0
    cache_bytes: int = 0


def _op_failure(w: spec.Workload, run: dict | None, scenario: str) -> str | None:
    if run is None:
        return "run missing or null"
    if not run.get("digest"):
        return "empty digest"
    if scenario not in w.no_fault and not run.get("blast_routers"):
        return "empty blast_routers on a fault scenario"
    load = run.get("workload")
    if load is not None:
        if load["completed_flows"] + load["blackholed_flows"] != load["flows"]:
            return "completed + blackholed != flows"
        if load["max_conservation_error"] != 0.0:
            return "byte conservation violated"
        if load["peak_link_utilization"] > 1.0:
            return "link utilization above 1.0"
    return None


def judge(w: spec.Workload, stdout: str) -> tuple[list[str], dict | None, int]:
    """Check every op of one CLI output; sum the simulated statistics."""
    try:
        runs = json.loads(stdout)["runs"]
    except (ValueError, KeyError, TypeError):
        return [f"{w.name}: output is not the CLI's JSON"] * w.ops, None, 0
    by_key = {(r["scenario"], r["stack"]): r for r in runs if r}
    failures, digests, flows = [], [], 0
    model = dict.fromkeys(spec.MODEL_STATS, 0)
    for stack in w.stacks:
        for scenario in w.scenarios:
            run = by_key.get((scenario, stack))
            why = _op_failure(w, run, scenario)
            if why is not None:
                failures.append(f"{scenario}/{stack}: {why}")
            if run is None:
                continue
            digests.append(run.get("digest") or "")
            load = run.get("workload") or {}
            flows += load.get("flows", 0)
            for stat in ("convergence_us", "control_bytes", "update_count",
                         "route_churn", "blackhole_us"):
                model[stat] += run[stat]
            model["blast_routers"] += len(run["blast_routers"])
            model["flows_completed"] += load.get("completed_flows", 0)
            for stat in ("delivered_bytes", "goodput_bps", "epochs",
                         "max_conservation_error"):
                model[stat] += load.get(stat, 0)
    model["model_digest"] = hashlib.sha256(
        "\n".join(digests).encode()).hexdigest()
    return failures, model, flows


def run_once(w: spec.Workload, seed: int, profile: bool = False) -> Sample:
    cache_dir = WORK / f"cache-{time.monotonic_ns()}"
    if w.jobs is not None:
        cache_dir.mkdir(parents=True)
    argv = w.cli_argv(seed, str(cache_dir), serial=profile)
    worker_args = ["run", "--argv", json.dumps(argv)]
    result, t_spawn, _ = spawn(
        worker_args + (["--profile"] if profile else []))
    if result is None or result["exit_code"] != 0:
        return Sample(failed=w.ops,
                      failures=(f"{w.name}: child failed or timed out",))
    failures, model, flows = judge(w, result["stdout"])
    sample = Sample(
        wall_s=result["wall_s"], cpu_s=result["cpu_s"],
        setup_s=result["entry_mono"] - t_spawn,
        peak_rss_mb=result["peak_rss_kb"] / 1024, model=model, flows=flows,
        profile=result.get("profile"))
    if w.jobs is not None and not profile:
        # warm replay: the same argv against the now-filled cache must
        # print the same bytes
        files = [p for p in cache_dir.rglob("*") if p.is_file()]
        sample.cache_entries = len(files)
        sample.cache_bytes = sum(p.stat().st_size for p in files)
        warm, _, _ = spawn(worker_args)
        if warm is None or warm["stdout"] != result["stdout"]:
            failures = [f"{w.name}: warm replay differs from cold"] * w.ops
        else:
            sample.replay_s = warm["wall_s"]
    shutil.rmtree(cache_dir, ignore_errors=True)
    sample.failures = tuple(failures)
    sample.failed = len(failures)
    return sample


def setup_probe() -> tuple[float, float] | None:
    """(set-up seconds, whole-CLI seconds) of one ``stacks --json``."""
    result, t_spawn, elapsed = spawn(
        ["run", "--argv", json.dumps(STARTUP_ARGV)])
    if result is None:
        return None
    return result["entry_mono"] - t_spawn, elapsed


# ----------------------------------------------------------------------
# a run: timed repeats (trace 0) and the traced pass (trace 1)
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """Everything one invocation learned about one workload."""
    workload: str
    ops: int
    attempted: int = 0
    failed: int = 0
    failures: tuple[str, ...] = ()
    valid: bool = True                # False voids the whole run
    model: dict | None = None
    end_to_end: dict | None = None    # name -> {median, min, max, n, unit}
    per_layer: dict | None = None     # name -> {value, unit}
    top: list | None = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.valid

    def absorb(self, samples: list[Sample]) -> None:
        """Count ops and hold every sample to the first one's model: the
        same code and seed must simulate the same thing every time."""
        for s in samples:
            self.attempted += self.ops
            self.failed += s.failed
            self.failures += s.failures
            if s.model is None:
                continue
            if self.model is None:
                self.model = s.model
            elif s.model != self.model:
                self.valid = False
                self.failures += (
                    f"{self.workload}: simulated statistics differ between "
                    f"runs of the same seed",)


def summarize(values: list[float], unit: str) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values), "unit": unit}


def timed(w: spec.Workload, out: Outcome, seed: int, seconds: float,
          repeats: int | None, probes: int) -> list[Sample]:
    """Set-up probes, then repeats until ``seconds`` are used up (or
    exactly ``repeats``); every reported value is a median."""
    deadline = time.monotonic() + seconds
    setups = [p[0] for _ in range(probes)
              if (p := setup_probe()) is not None]
    samples: list[Sample] = []
    took: list[float] = []
    while True:
        t0 = time.monotonic()
        samples.append(run_once(w, seed))
        took.append(time.monotonic() - t0)
        if repeats is not None:
            if len(samples) >= repeats:
                break
        elif time.monotonic() + statistics.median(took) > deadline:
            break
    out.absorb(samples)
    good = [s for s in samples if s.model is not None]
    if good:
        setups += [s.setup_s for s in good]
        out.end_to_end = {
            name: summarize(setups if name == "setup_s"
                            else [getattr(s, name) for s in good], unit)
            for name, unit, _better, _bound in spec.END_TO_END}
    return good


def missing_spans() -> list[str]:
    """Spans whose function is gone from the source: they read 0, which
    is also what a function that exists but never ran reads."""
    gone = []
    for name, (suffix, functions) in SPANS.items():
        if suffix is None:
            continue
        path = SRC / "repro" / suffix
        text = path.read_text() if path.exists() else ""
        if not all(f"def {fn}(" in text for fn in functions):
            gone.append(name)
    return gone


def count_lines(top: Path) -> int:
    return sum(len(p.read_bytes().splitlines()) for p in top.rglob("*.py"))


def traced(w: spec.Workload, out: Outcome, seed: int,
           plain: Sample | None) -> None:
    """One profiled run, set against an untraced one (``plain``, or a
    fresh one), plus the outside probes; never mixed into the timed
    repeats."""
    if plain is None:
        plain = run_once(w, seed)
        out.absorb([plain])
    prof = run_once(w, seed, profile=True)
    out.absorb([prof])
    startup = setup_probe()
    probe, _, _ = spawn(["probe", "--pods", str(w.pods)])
    if None in (plain.model, prof.model, startup, probe):
        out.valid = False
        out.failures += (f"{w.name}: traced pass incomplete",)
        return
    for name in missing_spans():
        print(f"bench: span {name}: function not found in src/, reads 0",
              file=sys.stderr)
    table = prof.profile
    values: dict[str, float] = {}
    for layer, row in table["layers"].items():
        values[f"{layer}.self_s"] = row["self_s"]
        values[f"{layer}.calls"] = row["calls"]
    for span, row in table["spans"].items():
        values[f"{span}.cum_s"] = row["cum_s"]
        values[f"{span}.calls"] = row["calls"]
    events = table["spans"]["sim.schedule"]["calls"]
    values.update({
        "phase.import_s": probe["import_s"],
        "phase.cli_startup_s": startup[1],
        "topology.build_s": probe["topology_build_s"],
        "sim.sched_probe_eps": probe["sched_probe_eps"],
        "cache.replay_s": plain.replay_s,
        "cache.entries": plain.cache_entries,
        "cache.bytes": plain.cache_bytes,
        "campaign.tasks_per_s": w.ops / plain.wall_s,
        "campaign.cpu_over_wall": plain.cpu_s / plain.wall_s,
        "sim.events_scheduled": events,
        "sim.host_us_per_event": plain.cpu_s * 1e6 / events,
        "workload.flows_per_s": plain.flows / plain.wall_s,
        "trace.overhead_ratio": prof.cpu_s / plain.cpu_s,
        "code.src_lines": count_lines(SRC),
        "code.test_lines": count_lines(ROOT / "tests"),
    })
    values.update({f"model.{stat}": plain.model[stat]
                   for stat in spec.MODEL_STATS})
    layer_sum = sum(row["self_s"] for row in table["layers"].values())
    if abs(layer_sum - table["total_s"]) > 0.02 * table["total_s"]:
        out.valid = False
        out.failures += (f"{w.name}: layer self times sum to {layer_sum:.3f} s"
                         f" of {table['total_s']:.3f} s profiled",)
    out.per_layer = {m.name: {"value": values[m.name], "unit": m.unit}
                     for m in spec.PER_LAYER}
    out.top = table["top"]


def measure(w: spec.Workload, args) -> Outcome:
    out = Outcome(w.name, w.ops)
    good: list[Sample] = []
    if args.trace in (None, 0):
        good = timed(w, out, args.seed, args.seconds, args.repeats,
                     1 if args.scale == "smoke" else SETUP_PROBES)
    if args.trace in (None, 1):
        traced(w, out, args.seed, good[0] if good else None)
    return out


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def fingerprint() -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], text=True,
            capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"   # the driver's checkout is not a repository
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_1m": os.getloadavg()[0],
        "git_commit": commit,
        "scrubbed_env": SCRUBBED,
    }


def recorded_digests(seed: int, scale: str) -> dict[str, str]:
    """``model_digest`` per workload as ``baseline.json`` recorded it, if
    it was recorded with this seed and scale (else nothing compares)."""
    path = BENCH / "baseline.json"
    if not path.exists():
        return {}
    doc = json.loads(path.read_text())
    if (doc["seed"], doc["scale"]) != (seed, scale):
        return {}
    return {name: w["model_digest"] for name, w in doc["workloads"].items()}


def document(out: Outcome, recorded: str | None) -> dict:
    digest = out.model["model_digest"] if out.model else None
    return {
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "ops_failed_share": out.failed / out.attempted,
        "failures": list(out.failures),
        "model_digest": digest,
        # reported, never a failure: a later correctness fix may change
        # what is simulated without being allowed to edit the benchmark
        "model_changed": recorded is not None and digest != recorded,
        "end_to_end": out.end_to_end,
        "per_layer": out.per_layer,
        "top_self_s": out.top,
    }


def print_outcome(out: Outcome, doc: dict) -> None:
    print(f"== {out.workload}: {'ok' if out.correct else 'INVALID'}, "
          f"ops_failed_share {doc['ops_failed_share']:.4f} ratio "
          f"({out.failed}/{out.attempted}), model_digest "
          f"{str(doc['model_digest'])[:16]}"
          f"{' (model_changed)' if doc['model_changed'] else ''}")
    for line in out.failures:
        print(f"   FAILED {line}")
    for name, row in (out.end_to_end or {}).items():
        print(f"   {name:<28} {row['median']:>16.6f} {row['unit']:<6} "
              f"min {row['min']:.6f} max {row['max']:.6f} n {row['n']}")
    for name, row in (out.per_layer or {}).items():
        print(f"   {name:<28} {row['value']:>16.6f} {row['unit']}")
    for row in out.top or []:
        print(f"   top self_s {row['self_s']:>10.3f} s  {row['function']}")


def result_line(out: Outcome) -> str:
    """The builder's contract: the last line of stdout."""
    metrics = {name: {"value": row["median"], "unit": row["unit"]}
               for name, row in (out.end_to_end or {}).items()}
    metrics.update(out.per_layer or {})
    return json.dumps({"correct": out.correct, "attempted": out.attempted,
                       "failed": out.failed, "metrics": metrics})


# ----------------------------------------------------------------------
# --selfcheck: do two sets of runs of the same code agree?
# ----------------------------------------------------------------------
def selfcheck(workloads, args) -> bool:
    """Interleave two sets (A1 B1 A2 B2 ...), seed + i for pair i, and
    hold the gap between their medians to each metric's bound."""
    ok = True
    pairs = args.repeats or 3
    print(f"{'workload':<14} {'metric':<12} {'median A':>12} {'median B':>12} "
          f"{'gap':>8} {'bound':>6}")
    for w in workloads:
        sets: tuple[list[Sample], list[Sample]] = ([], [])
        for i in range(pairs):
            for side in sets:
                side.append(run_once(w, args.seed + i))
        for i, (a, b) in enumerate(zip(*sets)):
            if a.failed or b.failed or a.model != b.model:
                print(f"{w.name}: seed {args.seed + i}: failed ops or simulated "
                      f"statistics differ between the two sets")
                ok = False
        for name, _unit, _better, bound in spec.END_TO_END:
            med_a, med_b = (statistics.median(getattr(s, name) for s in side)
                            for side in sets)
            gap = abs(med_b - med_a) / med_a if med_a else float("inf")
            flag = "" if gap <= bound else "  EXCEEDS BOUND"
            ok = ok and gap <= bound
            print(f"{w.name:<14} {name:<12} {med_a:>12.4f} {med_b:>12.4f} "
                  f"{gap:>8.2%} {bound:>6.0%}{flag}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    names = [w.name for w in spec.WORKLOADS]
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0,
                        help="passed through as the CLI's --seed")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="time budget of the timed repeats, per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: timed repeats only; 1: traced pass only "
                             "(default: both)")
    parser.add_argument("--repeats", type=int,
                        help="exactly this many timed repeats instead of "
                             "--seconds' worth (selfcheck: pairs, default 3)")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: 2 PoDs, 2,000 flows; checks names only")
    parser.add_argument("--out", help="write the full JSON document here")
    parser.add_argument("--selfcheck", action="store_true",
                        help="compare two interleaved sets of the same code")
    parser.add_argument("--manifest", action="store_true",
                        help="print BENCHMARK.json as spec.py defines it")
    args = parser.parse_args()
    if args.manifest:
        print(json.dumps(spec.manifest(), indent=2))
        return 0
    if not (SRC / "repro" / "cli.py").exists():
        print(f"bench: no program to measure: {SRC}/repro/cli.py is missing",
              file=sys.stderr)
        return 2

    workloads = [w.smoke() if args.scale == "smoke" else w
                 for w in spec.WORKLOADS if args.workload in (None, w.name)]
    host = fingerprint()
    print("host " + json.dumps(host, sort_keys=True))
    WORK.mkdir(parents=True)
    try:
        if args.selfcheck:
            return 0 if selfcheck(workloads, args) else 1
        recorded = recorded_digests(args.seed, args.scale)
        docs, outcomes = {}, []
        for w in workloads:
            out = measure(w, args)
            docs[w.name] = document(out, recorded.get(w.name))
            print_outcome(out, docs[w.name])
            outcomes.append(out)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        if not any(WORK.parent.iterdir()):
            WORK.parent.rmdir()
    if args.out:
        Path(args.out).write_text(json.dumps({
            "schema": "bench/1", "host": host, "seed": args.seed,
            "scale": args.scale,
            "per_layer_spec": {m.name: {
                "layer": m.layer, "source": m.source, "exact": m.exact,
                "moves": m.moves, "on": m.on} for m in spec.PER_LAYER},
            "workloads": docs}, indent=1, sort_keys=True) + "\n")
    if args.workload:
        print(result_line(outcomes[0]))
    return 0 if all(out.correct for out in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
