"""What the benchmark runs and what it reports: workloads and metrics.

This file is data.  ``run.py`` executes it, ``BENCHMARK.json`` is its
projection onto the builder's fixed key set (``run.py --manifest``
prints it; ``tests/test_contract.py`` holds the two equal), and
``README.md`` explains it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from rollup import LAYERS, SPANS

#: what the driver passes as ``--seconds``; sized so the 10 s workload
#: still gets two repeats after the set-up probes
RUN_SECONDS = 24

COMMAND = ("python3", "bench/run.py")
PATHS = ("bench",)

#: the canonical scenario library at the commit that defined the
#: benchmark, named explicitly so a later library addition does not
#: silently change the ``campaign`` workload
LIBRARY = ("tc1", "tc2", "tc3", "tc4", "flap-storm", "double-cut", "drain",
           "rolling-restart", "gray-uplink", "lossy-spine", "incast-storm",
           "hotspot-drain", "gray-uplink-recovery")
#: impairment-only scenarios: nothing goes down, so an empty blast
#: radius is a legitimate outcome
NO_FAULT = frozenset({"gray-uplink", "lossy-spine", "gray-uplink-recovery"})


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenarios: tuple[str, ...]    # expected runs per stack, in order
    stacks: tuple[str, ...]
    pods: int
    input: str | None = None      # scenario file under bench/inputs/
    jobs: int | None = None       # None: --no-cache, serial; N: cached fan-out
    no_fault: frozenset[str] = frozenset()

    @property
    def ops(self) -> int:
        """One op is one scenario run expected in the CLI's JSON."""
        return len(self.scenarios) * len(self.stacks)

    def smoke(self) -> "Workload":
        """The same code paths in seconds: 2 PoDs, at most four
        scenarios, the 2,000-flow inputs.  For checking names only."""
        return replace(self, pods=2, scenarios=self.scenarios[:4],
                       input=self.input and f"{self.input}.smoke")

    def cli_argv(self, seed: int, cache_dir: str,
                 serial: bool = False) -> list[str]:
        """The argv handed to ``repro.cli.main``."""
        argv = ["scenario", "run"]
        if self.input is None:
            argv += self.scenarios
        else:
            argv += ["--file", f"bench/inputs/{self.input}.json"]
        for stack in self.stacks:
            argv += ["--stack", stack]
        argv += ["--pods", str(self.pods), "--seed", str(seed), "--json"]
        if self.jobs is None:
            argv.append("--no-cache")
        else:
            argv += ["--jobs", "1" if serial else str(self.jobs),
                     "--cache-dir", cache_dir]
        return argv


WORKLOADS = (
    Workload(
        "fabric-mtp-32",
        "paper cases plus flaps/drain at 32 PoDs on MR-MTP: time is in sim, "
        "core and net; bgp and workload do nothing, the control for them",
        scenarios=LIBRARY[:7], stacks=("mtp",), pods=32),
    Workload(
        "fabric-bgp-16",
        "TC1-TC4 at 16 PoDs on the BGP/ECMP/BFD baseline: bgp, stack, iputil, "
        "routing and bfd carry it; core does nothing, the control for MR-MTP "
        "handler work",
        scenarios=LIBRARY[:4], stacks=("bgp-bfd",), pods=16),
    Workload(
        "load-1m",
        "1,000,000-flow permutation resolved once, 2 epochs, no faults: "
        "workload+numpy dominate, event path ~3%; peak RSS lives here",
        scenarios=("load-1m",), stacks=("mtp",), pods=8, input="load-1m",
        no_fault=frozenset({"load-1m"})),
    Workload(
        "load-churn",
        "200,000-flow hotspot re-resolved 10 times under table churn with the "
        "invariant monitor live: incremental re-resolve must win here and "
        "not move load-1m",
        scenarios=("load-churn",), stacks=("mtp",), pods=8,
        input="load-churn"),
    Workload(
        "campaign",
        "13 scenarios x 2 stacks at 4 PoDs with --jobs 2 into an empty cache: "
        "many small runs, so scenario compile, harness fan-out/cache/digest "
        "and per-task build+converge dominate, not one hot loop",
        scenarios=LIBRARY, stacks=("mtp", "bgp-bfd"), pods=4, jobs=2,
        no_fault=NO_FAULT),
)

# ----------------------------------------------------------------------
# end-to-end metrics: what a user of the simulator waits for or pays
# ----------------------------------------------------------------------
#: (name, unit, better, bound).  The bound is the share by which a
#: median may worsen before it is a regression, and it has to exceed
#: the spread between runs of the *same* code: over ten seeds on the
#: reference host the inter-quartile spread of wall_s/cpu_s is 5-9% of
#: the median (up to 17% when the host's speed shifted mid-set; half of
#: it is the seed itself, which moves the settle phase and so the event
#: count), of setup_s 2-7%, of peak_rss_mb under 3%.  Each bound is three
#: times that, capped at the contract's 0.25.  README "Bounds" has the
#: table; an interleaved A/B of the same code agrees within 1-3%.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    layer: str
    source: str        # profile | span | timer | count | model
    exact: bool        # repeats exactly on the same code, seed and host
    moves: str         # end-to-end metrics it should move ...
    on: str            # ... on these workloads


_FABRIC = "fabric-mtp-32 fabric-bgp-16 campaign"
_LOAD = "load-1m load-churn"

#: which end-to-end metric each layer metric should move, and where —
#: written before measuring; first matching prefix wins
_INTERACTIONS = (
    (("sim.",), "cpu_s wall_s", _FABRIC),
    (("net.",), "cpu_s", "fabric-mtp-32 fabric-bgp-16"),
    (("core.",), "cpu_s", "fabric-mtp-32 campaign"),
    (("workload.max_min_rates", "workload.finish", "numpy."),
     "cpu_s peak_rss_mb", "load-1m"),
    (("workload.", "routing.ecmp_hash"), "cpu_s wall_s", _LOAD),
    (("bgp.", "stack.", "iputil.", "bfd.", "routing."),
     "cpu_s", "fabric-bgp-16 campaign"),
    (("resilience.",), "cpu_s", "load-churn"),
    (("scenario.", "harness.", "cache.", "topology.", "campaign."),
     "wall_s", "campaign"),
    (("phase.",), "setup_s", "all"),
    (("trace.", "code."), "none", "all"),
    (("model.",), "none (must not move)", "all"),
    (("",), "cpu_s", "all"),
)


def _metric(name, unit, better, source, exact) -> LayerMetric:
    moves, on = next((moves, on) for prefixes, moves, on in _INTERACTIONS
                     if name.startswith(prefixes))
    return LayerMetric(name, unit, better, name.split(".", 1)[0], source,
                       exact, moves, on)


MODEL_STATS = ("convergence_us", "control_bytes", "update_count",
               "blast_routers", "route_churn", "blackhole_us",
               "flows_completed", "delivered_bytes", "goodput_bps", "epochs",
               "max_conservation_error")
_MODEL_HIGHER = {"flows_completed", "delivered_bytes", "goodput_bps"}
_MODEL_UNITS = {"convergence_us": "us", "blackhole_us": "us",
                "control_bytes": "B", "delivered_bytes": "B",
                "goodput_bps": "bit/s", "max_conservation_error": "ratio"}

PER_LAYER = (
    *(m for layer in LAYERS for m in (
        _metric(f"{layer}.self_s", "s", "lower", "profile", False),
        _metric(f"{layer}.calls", "count", "lower", "profile", True))),
    *(m for span in SPANS for m in (
        _metric(f"{span}.cum_s", "s", "lower", "span", False),
        _metric(f"{span}.calls", "count", "lower", "span", True))),
    _metric("phase.import_s", "s", "lower", "timer", False),
    _metric("phase.cli_startup_s", "s", "lower", "timer", False),
    _metric("topology.build_s", "s", "lower", "timer", False),
    _metric("sim.sched_probe_eps", "1/s", "higher", "timer", False),
    _metric("cache.replay_s", "s", "lower", "timer", False),
    _metric("cache.entries", "count", "lower", "count", True),
    _metric("cache.bytes", "B", "lower", "count", True),
    _metric("campaign.tasks_per_s", "1/s", "higher", "timer", False),
    _metric("campaign.cpu_over_wall", "ratio", "higher", "timer", False),
    _metric("sim.events_scheduled", "count", "lower", "count", True),
    _metric("sim.host_us_per_event", "us", "lower", "timer", False),
    _metric("workload.flows_per_s", "1/s", "higher", "timer", False),
    _metric("trace.overhead_ratio", "ratio", "lower", "timer", False),
    _metric("code.src_lines", "count", "lower", "count", True),
    _metric("code.test_lines", "count", "lower", "count", True),
    *(_metric(f"model.{stat}", _MODEL_UNITS.get(stat, "count"),
              "higher" if stat in _MODEL_HIGHER else "lower", "model", True)
      for stat in MODEL_STATS),
)


def manifest() -> dict:
    """``BENCHMARK.json``: exactly the keys the builder's contract names."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
