"""Scenario runs: the failure and packet-loss experiments against the
classic hand-driven sequences they replaced, golden metrics, digest
determinism, cache replay, and serial-vs-parallel byte-identity."""

from __future__ import annotations

import pytest

from repro.harness.cache import ResultCache
from repro.harness.convergence import ConvergenceMonitor
from repro.harness.digest import trace_digest
from repro.harness.executor import (
    CampaignReport,
    assert_fanout_deterministic,
    run_tasks,
)
from repro.harness.experiments import build_and_converge
from repro.harness.failures import FailureInjector
from repro.harness.metrics import blast_radius, snapshot_table_change_counts
from repro.harness.pathtrace import find_crossing_flow
from repro.scenario import (
    SCENARIO_RUN,
    Scenario,
    ScenarioEvent,
    ScenarioRunSpec,
    LIBRARY,
    TC_RUN,
    compile_scenario,
    get_scenario,
    run_failure_experiment,
    run_packet_loss_experiment,
    run_scenario,
    run_scenario_task,
    scenario_task_key,
)
from repro.sim.units import MILLISECOND, SECOND
from repro.stacks import resolve_spec
from repro.topology.clos import two_pod_params
from repro.traffic.generator import ReceiverAnalyzer, TrafficSender

from tests.harness.test_golden_metrics import GOLDEN


# ----------------------------------------------------------------------
# reference oracles: the hand-driven measured runs the scenario
# compiler replaced, kept step for step
# ----------------------------------------------------------------------
def classic_failure_run(params, stack, case_name, seed):
    """Converge, idle a per-seed keepalive phase, fail the TC interface,
    measure until updates quiesce: ``(metrics, trace digest)``."""
    world, topo, deployment = build_and_converge(params, stack, seed)
    phase_rng = world.rng.stream("experiment-settle")
    period = deployment.keepalive_period_us()
    world.run_for(int(phase_rng.uniform(0, 2 * period)))
    case = topo.failure_cases()[case_name]
    monitor = ConvergenceMonitor(world, deployment.update_categories())
    before = snapshot_table_change_counts(deployment.forwarding_tables())
    monitor.arm()
    FailureInjector(world).fail_interface(case.node, case.interface)
    monitor.run_until_quiet(
        quiet_us=SECOND, max_wait_us=30 * SECOND,
        min_wait_us=deployment.detection_bound_us() + SECOND)
    convergence = monitor.convergence_time_us()
    metrics = (convergence if convergence is not None else 0,
               monitor.update_bytes, monitor.update_count,
               blast_radius(before, deployment.forwarding_tables()))
    return metrics, trace_digest(world.trace)


def classic_packet_loss(params, stack, case_name, direction, seed=0,
                        rate_pps=1000):
    """A flow from the first to the last rack (``far``: the reverse) on
    a port crossing the TC link, the failure 500 ms in, 5 s of tail and
    1 s of drain: ``(sent, received, duplicated, out_of_order)``."""
    world, topo, deployment = build_and_converge(params, stack, seed)
    case = topo.failure_cases()[case_name]
    near_tor, far_tor = topo.tors[0][0][0], topo.tors[0][-1][-1]
    src_tor, dst_tor = ((near_tor, far_tor) if direction == "near"
                        else (far_tor, near_tor))
    src_host = topo.first_server_of(src_tor)
    dst_host = topo.first_server_of(dst_tor)
    src_port = find_crossing_flow(deployment, src_host, dst_host,
                                  case.node, case.peer_node)
    lead_us, tail_us, drain_us = 500 * MILLISECOND, 5 * SECOND, SECOND
    gap_us = SECOND // rate_pps
    sender = TrafficSender(udp=deployment.servers[src_host].udp,
                           dst=topo.server_address(dst_host),
                           src_port=src_port, gap_us=gap_us)
    analyzer = ReceiverAnalyzer(deployment.servers[dst_host].udp)
    start_at = world.sim.now
    sender.start(count=(lead_us + tail_us) // gap_us)
    FailureInjector(world).fail_interface(case.node, case.interface,
                                          at=start_at + lead_us)
    world.run(until=start_at + lead_us + tail_us + drain_us)
    report = analyzer.report(sender)
    return (report.sent, report.received, report.duplicated,
            report.out_of_order)


# ----------------------------------------------------------------------
# TC1-TC4 as scenarios replay the classic experiment exactly
# ----------------------------------------------------------------------
@pytest.mark.parametrize("stack,case", sorted(GOLDEN))
def test_tc_scenarios_reproduce_golden_metrics(stack, case):
    expected_conv, expected_bytes, expected_updates, expected_blast = \
        GOLDEN[(stack, case)]
    metrics = run_scenario(get_scenario(case.lower()), two_pod_params(),
                           stack, seed=0)
    assert metrics.convergence_us == expected_conv, (
        f"scenario {case} on {stack} diverged from the classic "
        f"experiment: {metrics.convergence_us} us != {expected_conv} us")
    assert metrics.control_bytes == expected_bytes
    assert metrics.update_count == expected_updates
    assert metrics.blast_routers == expected_blast


def test_tc_scenario_matches_classic_at_nonzero_seed():
    """Equality must hold per seed, not just at the golden seed 0: the
    whole trace, not only the metrics drawn from it."""
    for stack in ("mtp", "bgp-bfd"):
        for case in ("TC1", "TC2", "TC3", "TC4"):
            for seed in (3, 11):
                expected, expected_trace = classic_failure_run(
                    two_pod_params(), stack, case, seed)
                metrics, world = run_failure_experiment(
                    two_pod_params(), stack, case, seed, return_world=True)
                assert (metrics.convergence_us, metrics.control_bytes,
                        metrics.update_count,
                        metrics.blast_routers) == expected, (stack, case, seed)
                assert trace_digest(world.trace) == expected_trace, (
                    stack, case, seed)


@pytest.mark.parametrize("direction", ["near", "far"])
@pytest.mark.parametrize("stack", ["mtp", "bgp", "bgp-bfd"])
def test_loss_program_matches_classic(stack, direction):
    """The Figs. 7/8 loss program counts what the hand-driven sender,
    analyzer and injector counted (at half the paper's rate, to halve
    the packets simulated)."""
    result = run_packet_loss_experiment(two_pod_params(), stack, "TC2",
                                        direction=direction, rate_pps=500)
    assert (result.sent, result.received, result.duplicated,
            result.out_of_order) == classic_packet_loss(
                two_pod_params(), stack, "TC2", direction, rate_pps=500)


# ----------------------------------------------------------------------
# digests, cache, parallel
# ----------------------------------------------------------------------
def _spec(scenario_name: str, stack: str = "mtp",
          seed: int = 0) -> ScenarioRunSpec:
    return ScenarioRunSpec(params=two_pod_params(),
                           stack=resolve_spec(stack),
                           scenario=get_scenario(scenario_name), seed=seed)


def test_same_scenario_and_seed_same_digest():
    first = run_scenario_task(_spec("tc1"))
    second = run_scenario_task(_spec("tc1"))
    assert first.digest == second.digest
    assert len(first.digest) == 64  # SHA-256 hex


def test_digest_separates_seeds_and_scenarios():
    base = run_scenario_task(_spec("tc1"))
    assert run_scenario_task(_spec("tc1", seed=1)).digest != base.digest
    assert run_scenario_task(_spec("tc2")).digest != base.digest


def test_task_key_depends_on_scenario_content():
    keys = {scenario_task_key(_spec(name)) for name in ("tc1", "tc2")}
    assert len(keys) == 2
    assert scenario_task_key(_spec("tc1")) == scenario_task_key(_spec("tc1"))
    # `repro fail` and `scenario run tc1` share their cache entries
    assert scenario_task_key(TC_RUN.expand(two_pod_params(), ["mtp"])[0]) \
        == scenario_task_key(_spec("tc1"))


def test_second_suite_run_is_served_from_cache(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    specs = LIBRARY.expand(two_pod_params(), ["mtp"], scenario=[
        get_scenario("tc1"), get_scenario("tc4")])
    cold_report, warm_report = CampaignReport(), CampaignReport()
    cold = run_tasks(SCENARIO_RUN, specs, cache=cache, report=cold_report)
    warm = run_tasks(SCENARIO_RUN, specs, cache=cache, report=warm_report)
    assert cold_report.executed == 2 and cold_report.cached == 0
    assert warm_report.executed == 0 and warm_report.cached == 2
    assert [o.digest for o in warm] == [o.digest for o in cold]
    assert [o.metrics for o in warm] == [o.metrics for o in cold]


def test_serial_and_parallel_digests_are_identical():
    specs = LIBRARY.expand(two_pod_params(), ["mtp", "bgp-bfd"], scenario=[
        get_scenario("tc2"), get_scenario("tc4")])
    digests = assert_fanout_deterministic(SCENARIO_RUN, specs, jobs=2)
    assert len(digests) == len(specs)


# ----------------------------------------------------------------------
# the window stop rule and the fixed-window ops
# ----------------------------------------------------------------------
def test_window_rule_stops_exactly_after_the_horizon():
    program = Scenario(name="w", settle=0, window_ms=300, events=(
        ScenarioEvent(op="measure", label="t0"),
        ScenarioEvent(op="pause", duration_ms=200),
        ScenarioEvent(op="reachability", at_ms=150),
    ))
    metrics, world = run_scenario(program, two_pod_params(), "bgp-bfd",
                                  return_world=True)
    start = metrics.checkpoints[0].time_us
    # no quiesce and no detection-bound wait: 200 ms of horizon + 300
    assert world.sim.now - start == 500 * MILLISECOND
    assert (metrics.pairs_checked, metrics.unreachable) == (12, [])
    plain = run_scenario(Scenario(name="p", settle=0, events=(
        ScenarioEvent(op="pause", duration_ms=200),)), two_pod_params(),
        "bgp-bfd")
    assert plain.pairs_checked is None and plain.unreachable is None


def test_checkpoint_freezes_the_liveness_fold():
    """A lossy uplink false-flags MR-MTP; the checkpoint at 1 s counts
    the detections up to that instant only, the run counts them all."""
    program = Scenario(name="fold", settle=0, window_ms=2000, events=(
        ScenarioEvent(op="impair", target="tor[0].uplink[0]", loss=0.3),
        ScenarioEvent(op="measure", at_ms=1000, label="early"),
    ))
    metrics = run_scenario(program, two_pod_params(), "mtp")
    early, = metrics.checkpoints
    assert 0 < early.false_positives < metrics.false_positives
    assert early.detections >= early.false_positives
    assert 0 < early.flaps <= metrics.flaps


@pytest.mark.parametrize("op,crashed", [("isolate", False),
                                         ("node_crash", True)])
def test_isolate_downs_every_interface_and_spares_the_agent(op, crashed):
    world, topo, deployment = build_and_converge(two_pod_params(), "mtp")
    agg = topo.aggs[0][0][0]
    program = compile_scenario(
        Scenario(name=op, settle=0, window_ms=0,
                 events=(ScenarioEvent(op=op, target="agg[0][0]"),)),
        world, topo, deployment)
    program.execute("mtp", 0)
    assert deployment.mtp_nodes[agg].crashed is crashed
    assert not any(i.admin_up for i in topo.node(agg).interfaces.values())


def test_via_picks_the_port_when_the_burst_starts():
    """The burst's port crosses its link on the forwarding state of its
    own start: after the link is cut, no flow crosses it and the burst
    falls back to 40000; on the converged fabric it gets the crossing
    port the path tracer names."""
    world, topo, deployment = build_and_converge(two_pod_params(), "mtp")
    tor, agg = topo.all_tors()[0], topo.all_aggs()[0]
    src = topo.first_server_of(tor)
    dst = topo.first_server_of(topo.all_tors()[-1])
    crossing = find_crossing_flow(deployment, src, dst, tor, agg)
    assert crossing not in (None, 40000)
    link = f"{tor}--{agg}"
    burst = ScenarioEvent(op="traffic_burst", at_ms=100, src=src, dst=dst,
                          rate_pps=100, count=5, via=link)
    for cut, expected in ((False, crossing), (True, 40000)):
        events = ((ScenarioEvent(op="link_cut", target=link), burst)
                  if cut else (burst,))
        world, topo, deployment = build_and_converge(two_pod_params(),
                                                     "mtp")
        program = compile_scenario(
            Scenario(name="via", settle=0, window_ms=0, events=events),
            world, topo, deployment)
        program.execute("mtp", 0)
        assert program.bursts[0].src_port == expected
        assert program.bursts[0].crossed is not cut
