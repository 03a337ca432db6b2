"""Simulator performance — the substrate's own cost.

Per the profile-before-you-trust discipline: raw event-engine
throughput, protocol bring-up cost per fabric size, and the cost of one
complete failure experiment.  These are the numbers that bound how far
the scalability extension can push (events scale with routers x timers x
simulated seconds).
"""

from __future__ import annotations

import cProfile
import dataclasses
import gc
import json
import os
import pickle
import pstats
import sys
import time
import tracemalloc
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

import bench_engine

from repro.bgp import encoding as bgp_encoding
from repro.bgp.messages import BgpKeepalive
from repro.core.config import MtpTimers
from repro.harness import executor, experiments
from repro.harness.executor import CampaignReport, RetryPolicy, run_tasks
from repro.scenario import (
    LIBRARY,
    SCENARIO_RUN,
    TC_SEEDS,
    Scenario,
    ScenarioRunSpec,
    ScenarioEvent,
    canonical_scenarios,
    get_scenario,
    run_scenario,
)
from repro.scenario.compiler import compile_scenario
from repro.sim.engine import Simulator
from repro.sim.units import MILLISECOND, SECOND
from repro.topology.clos import ClosParams
from repro.workload import engine as fluid_engine
from repro.workload.engine import FluidWorkload
from repro.workload.fluid import FluidProblem, link_loads
from repro.workload.spec import WorkloadSpec
from repro.harness.experiments import build_and_converge
from repro.scenario import run_failure_experiment
from repro.stacks import StackTimers, resolve_spec


def test_raw_event_throughput(benchmark):
    """Schedule+dispatch cost of the bare engine (no protocols)."""
    N = 200_000

    def churn():
        sim = Simulator()

        def tick(i=[0]):
            i[0] += 1
            if i[0] < N:
                sim.schedule_after(1, tick)

        # seed a fan of timers to keep the heap non-trivial
        for t in range(1, 1000):
            sim.schedule_at(t * 7, lambda: None)
        sim.schedule_after(1, tick)
        sim.run()
        return sim.events_processed

    processed = benchmark(churn)
    assert processed >= N


@pytest.mark.parametrize("pods", [2, 4, 8])
def test_fabric_convergence_cost(benchmark, pods):
    """Wall-clock cost of building + converging an MR-MTP fabric."""
    params = ClosParams(num_pods=pods)

    def converge():
        world, topo, dep = build_and_converge(params, "mtp",
                                              trace_enabled=False)
        return world.sim.events_processed

    events = benchmark.pedantic(converge, rounds=1, iterations=1)
    assert events > 0


def test_full_failure_experiment_cost(benchmark):
    """One complete TC1 run (build, converge, fail, measure) — the unit
    of work every figure multiplies."""
    result = benchmark.pedantic(
        lambda: run_failure_experiment(ClosParams(num_pods=2),
                                       "bgp", "TC1"),
        rounds=1, iterations=1,
    )
    assert result.convergence_us > 0


# ----------------------------------------------------------------------
# BENCH_engine.json regression guards: the recorded trajectory is the
# baseline; a change that costs the engine its fast path fails here.
# Tolerances are generous (CI hosts vary widely) — these catch
# catastrophic regressions, not single-digit drift.
# ----------------------------------------------------------------------
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


@pytest.fixture(scope="module")
def bench_doc():
    assert BENCH_PATH.exists(), (
        "BENCH_engine.json missing — regenerate with "
        "`PYTHONPATH=src python benchmarks/bench_engine.py`")
    return json.loads(BENCH_PATH.read_text())


def _sync_timers_throughput(n: int = 100_000) -> float:
    return max(bench_engine.bench_sync_timers(n) for _ in range(3))


def test_recorded_trajectory_meets_speedup_target(bench_doc):
    """The committed artifact must record the >= 3x headline speedup
    over the pre-change engine (same host, same workload)."""
    assert bench_doc["headline"]["speedup_vs_pre_change"] >= 3.0
    baseline = bench_doc["baseline_pre_change"]["events_per_sec"]
    assert baseline["sync_timers_1024"] > 0  # trajectory is anchored


def test_live_engine_beats_pre_change_baseline(bench_doc):
    """Live wheel throughput on the headline workload must comfortably
    beat the frozen pre-change heap number.  The recorded speedup is
    ~3.3x; requiring 1.5x leaves 2x headroom for slower CI hosts."""
    baseline = bench_doc["baseline_pre_change"]["events_per_sec"][
        "sync_timers_1024"]
    live = _sync_timers_throughput()
    assert live >= 1.5 * baseline, (
        f"engine fast path regressed: {live:,.0f} ev/s live vs "
        f"{baseline:,} ev/s pre-change baseline (need >= 1.5x)")


def test_live_engine_within_band_of_recorded_run(bench_doc):
    """Sanity band against the recorded wheel number itself: a 4x
    collapse on the same workload is a regression on any host."""
    recorded = bench_doc["micro"]["sync_timers_1024"]["events_per_sec"][
        "wheel"]
    live = _sync_timers_throughput()
    assert live >= 0.25 * recorded, (
        f"live {live:,.0f} ev/s fell out of band of recorded "
        f"{recorded:,} ev/s")


def test_32pod_tc1_within_tier1_budget():
    """The acceptance gate: a 32-PoD TC1 failure experiment must fit a
    tier-1 time budget (recorded ~0.4s wall; 30s is the hard ceiling)."""
    t0 = time.perf_counter()
    result = run_failure_experiment(ClosParams(num_pods=32), "mtp", "TC1",
                                    seed=0)
    wall = time.perf_counter() - t0
    assert result.convergence_us > 0
    assert wall < 30.0, f"32-PoD TC1 took {wall:.1f}s (budget 30s)"


def test_bgp_fabric_converges_without_encoding_a_message(monkeypatch):
    """Frames are sized by arithmetic (DESIGN "What a frame's size
    costs"): a converging 2-PoD bgp-bfd fabric — OPENs, the UPDATE
    cascade, keepalives, BFD — must never build RFC 4271 bytes to learn
    a length.  A count, so host speed cannot flake it."""
    encoded = _count_encodes(monkeypatch)
    world, _topo, deployment = build_and_converge(
        ClosParams(num_pods=2), "bgp-bfd", trace_enabled=False)
    assert deployment.ready() and world.sim.events_processed > 0
    assert encoded == []


def _count_encodes(monkeypatch) -> list[str]:
    """The names of the BGP messages encoded from now on: a counter
    under every module-level binding of ``encode_message``, whatever
    alias it was imported as."""
    real = bgp_encoding.encode_message
    encoded = []

    def counting(msg):
        encoded.append(type(msg).__name__)
        return real(msg)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro"):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counting)
    assert len(bgp_encoding.encode_message(BgpKeepalive())) == 19
    assert encoded == ["BgpKeepalive"]  # the counter is live
    encoded.clear()
    return encoded


def test_bgp_suite_is_quiet_and_never_encodes(monkeypatch):
    """The whole-run count behind CI's quiet-BGP guard, whose profile
    sees only the campaign's parent process, not its forked tasks: 2-PoD
    ``bgp-bfd`` tc1..tc4, each run in-process on a world of its own,
    schedule at most 5,157 events in all, converges included (4,688 on
    Python 3.11 since a timer kick moves a deadline instead of
    scheduling an event, plus 10%; 5,664 before; 21,574 before idle BFD
    and the aftermath of a keepalive became arithmetic), and never
    encode a BGP message to size a frame."""
    encoded = _count_encodes(monkeypatch)
    specs = LIBRARY.expand(ClosParams(num_pods=2), ["bgp-bfd"], scenario=[
        get_scenario(n) for n in ("tc1", "tc2", "tc3", "tc4")])
    scheduled = 0
    for spec in specs:
        _metrics, world = run_scenario(spec.scenario, spec.params, spec.stack,
                                       spec.seed, return_world=True)
        scheduled += world.sim.events_scheduled
    assert encoded == []
    assert scheduled <= 5_157, scheduled


def test_link_index_is_built_per_forwarding_state_not_per_solve(
        monkeypatch):
    """The waterfall's link->flow index (DESIGN "What a solve costs")
    is sorted once per ``FluidProblem``: a loaded 2-PoD TC1 run solves
    every epoch but captures only a few forwarding states, and each
    capture's problem is indexed exactly once.  Counts, no wall clock."""
    calls = {"index": 0, "assemble": 0, "solve": 0}

    def counted(name, real):
        def wrapper(self, *args):
            calls[name] += 1
            return real(self, *args)
        return wrapper

    index = cached_property(counted(
        "index", FluidProblem.__dict__["link_index"].func))
    index.__set_name__(FluidProblem, "link_index")
    monkeypatch.setattr(FluidProblem, "link_index", index)
    monkeypatch.setattr(FluidWorkload, "_assemble_paths", counted(
        "assemble", FluidWorkload._assemble_paths))
    monkeypatch.setattr(FluidWorkload, "_solve", counted(
        "solve", FluidWorkload._solve))

    scenario = Scenario(
        name="tc1-loaded", description="TC1 under a permutation workload",
        settle="keepalive-phase", quiet_ms=1000, max_wait_ms=45_000,
        events=(
            ScenarioEvent(op="workload", at_ms=0, workload={
                "name": "tc1-load", "matrix": "permutation", "flows": 500,
                "duration_ms": 600, "epoch_ms": 25}),
            ScenarioEvent(op="iface_down", at_ms=200, target="case:TC1"),
        ))
    metrics = run_scenario(scenario, ClosParams(num_pods=2), "mtp", seed=0)
    assert metrics.workload["max_blackhole_us"] > 0  # the fault rerouted
    assert calls["assemble"] >= 2 and calls["solve"] >= 3
    assert calls["index"] == calls["assemble"] < calls["solve"]


def test_resolve_hashes_each_branch_point_once(monkeypatch):
    """What a resolve hashes (DESIGN "What a re-resolve costs"), counted:
    a 20,000-flow permutation's first resolve on the 8-PoD ``mtp``
    fabric hashes one batch per hashed walk depth (the ToR's and the
    aggregation's uplink choice, depths 0 and 1), and each (flow, salt)
    pair once — two per flow that leaves its rack.  A re-resolve of
    unchanged tables, and one that walks every rack pair again from the
    digest cache, hash nothing."""
    depths, pairs = [], []
    digests_at = FluidWorkload._digests_at
    hash_batch = fluid_engine._hash_batch

    def counted_depth(self, depth, wanted):
        depths.append(depth)
        return digests_at(self, depth, wanted)

    def counted_batch(packed_keys, requests, store):
        pairs.append([(int(row), salt) for rows, salt in requests
                      for row in rows])
        return hash_batch(packed_keys, requests, store)

    monkeypatch.setattr(FluidWorkload, "_digests_at", counted_depth)
    monkeypatch.setattr(fluid_engine, "_hash_batch", counted_batch)
    world, topo, deployment = build_and_converge(
        ClosParams(num_pods=8), "mtp", seed=0)
    spec = WorkloadSpec(name="hash-count", matrix="permutation",
                        flows=20_000, duration_ms=100, tenants=8)
    workload = FluidWorkload(spec, topo, deployment)
    workload._resolve()
    leaving = sum(len(group.flows) for group in workload._groups)
    assert depths == [0, 1]
    assert len(pairs) == 2
    hashed = [pair for batch in pairs for pair in batch]
    assert len(hashed) == len(set(hashed)) == 2 * leaving > 0

    depths.clear()
    pairs.clear()
    workload._resolve()
    assert depths == []
    for group in workload._groups:
        group.reads = {}
    workload._resolve()
    assert depths == [0, 1] and pairs == []


def test_a_flow_costs_bytes_counted_not_seconds():
    """What a flow costs (DESIGN "What a flow costs"), by ``tracemalloc``
    — NumPy reports its buffers to it, so the figures repeat exactly and
    no host can flake them.  A 100,000-flow permutation on the 8-PoD
    fabric, construction to report, peaks under 340 traced bytes per
    flow (440.8 while every solve filtered its own copy of the index and
    settlement held its temporaries into the loads call; 318.3 since).
    And ``link_loads`` allocates its per-entry weights and little else:
    ``np.bincount`` copies an index array that is read-only, which on
    its own made the call 2.00 x ``flow_links.nbytes``; 1.17 without."""
    flows = 100_000
    world, topo, deployment = build_and_converge(
        ClosParams(num_pods=8), "mtp", seed=0)
    spec = WorkloadSpec(name="bytes-per-flow", matrix="permutation",
                        flows=flows, duration_ms=200, epoch_ms=50, tenants=8)
    tracemalloc.start()
    try:
        engine = FluidWorkload(spec, topo, deployment)
        engine.start()
        world.run_for(spec.duration_ms * MILLISECOND)
        report = engine.finish()
        _, run_peak = tracemalloc.get_traced_memory()

        problem = engine.problem
        rate = np.ones(flows)
        tracemalloc.reset_peak()
        entry, _ = tracemalloc.get_traced_memory()
        loads = link_loads(problem, rate)
        _, loads_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.completed_flows == flows and len(loads) == problem.n_links
    assert run_peak <= 340 * flows, f"{run_peak / flows:.1f} B per flow"
    ratio = (loads_peak - entry) / problem.flow_links.nbytes
    assert ratio <= 1.25, f"link_loads peaks at {ratio:.2f} x flow_links"


def test_bgp_cold_start_cost_per_update():
    """What a cold BGP start costs per UPDATE it delivers, counted, not
    timed: a 16-PoD ``bgp-bfd`` converge at seed 0 receives 4,096
    UPDATEs, and each one's TCP segment, pure ACK, timer kicks, decision
    and fan-out cost 179.0 primitive Python calls and the whole converge
    schedules 20,416 events (Python 3.11).  Ceilings are those plus 2%.
    Before a kick moved a deadline instead of scheduling an event, a
    connection kept its route, flags were tested as bits and the
    decision stopped hashing and comparing dataclasses per peer, it was
    273.5 calls and 29,504 events."""
    profiler = cProfile.Profile(builtins=False)
    world, _topo, deployment = profiler.runcall(
        build_and_converge, ClosParams(num_pods=16), "bgp-bfd", seed=0)
    updates = sum(record.category == "bgp.update.rx"
                  for record in world.trace.records)
    # per code object, as _burst_calls counts
    calls = sum(entry.callcount - entry.reccallcount
                for entry in profiler.getstats())
    assert deployment.ready() and updates == 4096
    assert world.sim.events_scheduled <= 20_824, world.sim.events_scheduled
    assert calls <= 182.6 * updates, f"{calls / updates:.1f} calls per UPDATE"


def _no_op_tap(iface, frame, direction) -> None:
    pass


def _profiled_second(world):
    """(primitive Python calls, events scheduled) over one simulated
    second."""
    profiler = cProfile.Profile(builtins=False)
    profiler.runcall(world.sim.run_for, SECOND)
    stats = pstats.Stats(profiler).stats
    calls = sum(primitive for primitive, *_ in stats.values())
    events = sum(
        total for (path, _line, name), (_prim, total, *_) in stats.items()
        if path.endswith("sim/engine.py")
        and name in ("schedule_at", "schedule_after"))
    return calls, events


def _bgp_counters(world, deployment) -> tuple:
    """What a BGP/BFD second advances: BFD, TCP and IP counters, read
    through their settling accessors."""
    speakers = deployment.speakers.values()
    return (
        [(b.packets_sent, b.packets_received) for s in speakers
         for b in s.bfd.sessions.values()],
        [(p.conn.snd_nxt, p.conn.snd_una, p.conn.rcv_nxt,
          p.conn.segments_sent, p.conn.bytes_delivered)
         for s in speakers for p in s.peers.values()],
        [vars(stack.counters) for stack in deployment.stacks.values()],
        [(i.counters.tx_frames, i.counters.rx_frames)
         for i in world.all_interfaces()])


@pytest.mark.parametrize("stack, ceiling, scheduled", [
    ("mtp", 26, 2560), ("bgp-bfd", 42, 1718)])
def test_quiet_second_is_free_untouched_and_cheap_played_out(
        stack, ceiling, scheduled):
    """One quiet simulated second on a converged 4-PoD fabric (DESIGN
    "Steady-state frame path"), counted, not timed.  On MR-MTP it
    schedules nothing at all, and the 64 link directions' 1280
    keepalives are in the counters all the same; with every interface
    tapped — a capture needs each frame to exist — it is the exchange
    the fabric always had, a hello tick and a delivery per keepalive
    (2560 events; 3840 while each delivery's dead-timer kick scheduled
    an event) at <= 26 primitive Python calls (36.0 before the path was
    shaped for the healthy case, 23.8 after; the 200 firings of a
    retransmit timer with nothing to retransmit are gone from both;
    25.1 with eager kicks, 24.9 with lazy ones).  On BGP/BFD it
    schedules only the 64 session ends' keepalive ticks, and every BFD,
    TCP and IP counter ends where a tapped copy's does; tapped, that
    copy plays every exchange out: exactly 1718 events (2513 while
    every hold, detection and retransmit kick scheduled one), <= 42
    calls per delivered frame (41.4 with eager kicks, 36.2 with lazy
    ones and a connection that keeps its route; per event, the old
    unit, the kicks' events made it look cheaper)."""
    world, _topo, deployment = build_and_converge(
        ClosParams(num_pods=4), stack, seed=3)
    if stack == "mtp":
        def keepalives():
            return sum(mtp.counters.keepalives_sent
                       for mtp in deployment.mtp_nodes.values())

        sent = keepalives()
        _calls, events = _profiled_second(world)
        assert events == 0 and world.sim.pending_events == 0
        assert keepalives() - sent == 1280
        for iface in world.all_interfaces():
            iface.add_tap(_no_op_tap)
        sent, emitted = keepalives(), len(world.trace.records)
    else:
        copy, _, copied = pickle.loads(pickle.dumps(
            (world, _topo, deployment)))
        emitted = len(world.trace.records)
        _calls, events = _profiled_second(world)
        assert events == 64 == sum(
            r.category == "bgp.keepalive.tx"
            for r in world.trace.records[emitted:])
        quiet = _bgp_counters(world, deployment)
        world, deployment = copy, copied
        for iface in world.all_interfaces():
            iface.add_tap(_no_op_tap)

    def delivered():
        return sum(i.counters.rx_frames for i in world.all_interfaces())

    received = delivered()
    calls, events = _profiled_second(world)
    assert events == scheduled
    if stack == "mtp":
        units = keepalives() - sent
        assert units == 1280 == sum(r.category == "mtp.keepalive.tx"
                                    for r in world.trace.records[emitted:])
    else:
        units = delivered() - received
        assert _bgp_counters(world, deployment) == quiet
    assert calls <= ceiling * units, f"{calls / units:.1f} calls per unit"


def _burst_calls(snapshot: bytes, count: int) -> int:
    """Primitive Python calls of a ``count``-packet burst over 0.2 s
    (``server:tor[3]`` -> ``server:tor[0]``) on a restored copy."""
    world, topo, deployment = pickle.loads(snapshot)
    program = compile_scenario(Scenario(
        name="burst", settle=0, window_ms=0, events=(ScenarioEvent(
            op="traffic_burst", at_ms=0, src="server:tor[3]",
            dst="server:tor[0]", rate_pps=5 * count, count=count,
            src_port=40000),)), world, topo, deployment)
    profiler = cProfile.Profile(builtins=False)
    metrics = profiler.runcall(program.execute, "burst", 0)
    assert metrics.received == count
    # per code object: pstats merges the dataclass-generated functions
    # (all labelled <string>:2) and keeps one of them
    return sum(entry.callcount - entry.reccallcount
               for entry in profiler.getstats())


@pytest.mark.parametrize("stack, ceiling", [("mtp", 240), ("bgp-bfd", 215)])
def test_per_packet_forwarding_cost_is_flat_in_pods(stack, ceiling):
    """What one more forwarded packet costs, counted, not timed: the
    calls of a 1,200-packet burst minus those of a 200-packet one over
    the same 0.2 s, per extra packet.  MR-MTP's decision reads a root
    index and one pass over the ports, ECMP a memoized digest, a quiet
    BFD session its next-due value, so 32 PoDs cost what 4 do: 220.6
    and 195.0 calls (Python 3.11; 235.6 and 211.0 while every dead-timer
    kick scheduled an event and IP compared address objects).
    Rescanning the VID table, the ports and the BFD heap per packet, it
    was 289.6 -> 429.6 and 235.0."""
    per_packet = []
    for pods in (4, 32):
        snapshot = pickle.dumps(build_and_converge(
            ClosParams(num_pods=pods), stack, seed=0))
        per_packet.append((_burst_calls(snapshot, 1200)
                           - _burst_calls(snapshot, 200)) / 1000)
    assert abs(per_packet[1] - per_packet[0]) <= 2, per_packet
    assert max(per_packet) <= ceiling, per_packet


# ----------------------------------------------------------------------
# converged worlds, forked (DESIGN "Converged worlds, forked"): a suite
# converges each distinct world once in this process and forks its tasks
# from it (serially, all but the last); serially, a task that cannot
# share a world never forks.  Counts, no wall clock.
# ----------------------------------------------------------------------
@pytest.fixture
def world_counts(monkeypatch):
    calls = {"converge": 0, "forks": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(experiments, "converge_from_cold", counted(
        "converge", experiments.converge_from_cold))
    monkeypatch.setattr(executor, "fork_task", counted(
        "forks", executor.fork_task))
    return calls


def _suite(names, stacks, pods=2, seed=0, **kwargs):
    outcomes = run_tasks(SCENARIO_RUN, LIBRARY.expand(
        ClosParams(num_pods=pods), stacks, (seed,),
        scenario=[get_scenario(n) for n in names]), **kwargs)
    assert all(o is not None and o.digest for o in outcomes)
    return outcomes


def test_tc1_to_tc4_converge_one_world(world_counts):
    _suite(["tc1", "tc2", "tc3", "tc4"], ["bgp-bfd"], seed=4)
    assert world_counts == {"converge": 1, "forks": 3}


def test_library_campaign_converges_one_world_per_stack(world_counts):
    names = sorted(canonical_scenarios())
    outcomes = _suite(names, ["mtp", "bgp-bfd"], pods=4)
    assert len(outcomes) == 26
    assert world_counts == {"converge": 2, "forks": 24}


def test_other_seed_or_timers_is_a_snapshot_miss(world_counts):
    """Worlds that differ only in seed or timers share nothing: three
    tasks, three converges, no fork."""
    jittered = StackTimers(mtp=MtpTimers(jitter=0.1))
    params = ClosParams(num_pods=2)
    specs = [ScenarioRunSpec(params=params, stack=resolve_spec("mtp", timers),
                             scenario=get_scenario("tc1"), seed=seed)
             for seed, timers in ((0, None), (1, None), (1, jittered))]
    outcomes = run_tasks(SCENARIO_RUN, specs)
    assert len({o.digest for o in outcomes}) == 3
    assert world_counts == {"converge": 3, "forks": 0}


def test_tasks_that_cannot_reuse_a_world_never_pickle_one(
        world_counts, monkeypatch, tmp_path):
    # one scenario on one stack (the load-1m / load-churn shape), and
    # one scenario across stacks: no world recurs
    _suite(["tc1"], ["mtp"])
    _suite(["tc1"], ["mtp", "bgp-bfd"])
    # seed batches draw a distinct seed per task
    run_tasks(SCENARIO_RUN, TC_SEEDS.expand(ClosParams(num_pods=2), ["mtp"],
                                            (0, 1)))
    assert world_counts == {"converge": 5, "forks": 0}

    # supervised attempts are forked from the one converged world too,
    # the last task included; a file, not the in-memory counter, sees
    # what a child does — and sees the one fork the same suite makes
    # serially
    log = tmp_path / "forks.log"
    real = executor.fork_task

    def logged(*args, **kwargs):
        with log.open("a") as fh:
            fh.write("fork\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(executor, "fork_task", logged)
    _suite(["tc1", "tc2"], ["mtp"])
    assert log.read_text() == "fork\n"
    log.unlink()
    _suite(["tc1", "tc2"], ["mtp"], policy=RetryPolicy())
    assert log.read_text() == "fork\nfork\n"


def test_a_fanned_out_campaign_converges_once_per_world(world_counts,
                                                         monkeypatch):
    """``--jobs 2`` on the library x {mtp, bgp-bfd} at 4 PoDs (the bench
    ``campaign`` shape): two worlds, every task forked from one of them,
    not a converge per chunk of a pool."""
    monkeypatch.setattr(executor.os, "cpu_count", lambda: 2)
    report = CampaignReport()
    outcomes = _suite(sorted(canonical_scenarios()), ["mtp", "bgp-bfd"],
                      pods=4, jobs=2, report=report)
    assert len(outcomes) == 26 and report.jobs == 2
    assert world_counts == {"converge": 2, "forks": 26}


def test_a_supervised_campaign_converges_once(world_counts):
    """Supervised tc1..tc4 on ``bgp-bfd``: one converge, four children
    forked from it."""
    _suite(["tc1", "tc2", "tc3", "tc4"], ["bgp-bfd"], seed=4,
           policy=RetryPolicy(max_attempts=1))
    assert world_counts == {"converge": 1, "forks": 4}


_CRASH_MARKER: list[str] = []


def _crash_once(spec, world=None):
    """``tc1`` dies without reporting on its first attempt."""
    marker = _CRASH_MARKER[0]
    if spec.scenario.name == "tc1" and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(9)
    return SCENARIO_RUN.run(spec, world)


def test_a_retry_after_a_crash_converges_nothing(world_counts, tmp_path):
    """A supervised child that crashes once is re-forked from the same
    converged world: the retry converges nothing."""
    _CRASH_MARKER[:] = [str(tmp_path / "crashed")]
    kind = dataclasses.replace(SCENARIO_RUN, run=_crash_once)
    specs = LIBRARY.expand(ClosParams(num_pods=2), ["bgp-bfd"], scenario=[
        get_scenario("tc1"), get_scenario("tc2")])
    report = CampaignReport()
    outcomes = run_tasks(kind, specs, report=report, policy=RetryPolicy(
        max_attempts=2, backoff_base_s=0.01, backoff_cap_s=0.02))
    assert [a.outcome for a in report.records[0].attempts] == [
        "crash", "ok"]
    assert world_counts == {"converge": 1, "forks": 3}
    assert [o.digest for o in outcomes] == [
        o.digest for o in run_tasks(SCENARIO_RUN, specs)]


# ----------------------------------------------------------------------
# world lifetime (DESIGN "World lifetime"): a campaign collects once per
# world it drops and never on its own, and a pickled world carries only
# live events.  Counts, no wall clock.
# ----------------------------------------------------------------------
def test_a_suite_collects_once_between_tasks_and_never_on_its_own():
    """Two worlds of two tasks each, run inline, see one collection
    while they run, a full one, freeing the first world before the
    second converges; forked tasks' worlds die with their processes and
    the collector's own passes over the live world are gone.  (The last
    world is the restored collector's: its first young pass frees it.)"""
    specs = LIBRARY.expand(
        ClosParams(num_pods=4), ["mtp", "bgp-bfd"],
        scenario=[get_scenario(n) for n in ("tc1", "tc2")])
    generations = []

    def seen(phase, info):
        if phase == "start" and not gc.isenabled():
            generations.append(info["generation"])

    gc.collect()   # nothing owed before the suite starts
    gc.callbacks.append(seen)
    try:
        outcomes = run_tasks(SCENARIO_RUN, specs)
    finally:
        gc.callbacks.remove(seen)
    assert all(o is not None and o.digest for o in outcomes)
    assert generations == [2]


def test_a_restored_world_carries_no_tombstones():
    """A converged 4-PoD bgp-bfd world holds cancelled re-arms; its
    pickled copy holds none, and counts them as discarded, so its
    ``queue_depth`` is exactly its live events."""
    built = build_and_converge(ClosParams(num_pods=4), "bgp-bfd", seed=0)
    sim = built[0].sim
    assert sim.queue_depth > sim.pending_events
    restored = pickle.loads(pickle.dumps(built, pickle.HIGHEST_PROTOCOL))
    copy = restored[0].sim
    assert copy.queue_depth == copy.pending_events == sim.pending_events
