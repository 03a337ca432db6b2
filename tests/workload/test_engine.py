"""The fluid engine end to end: fault-free runs, faulted scenarios,
and agreement with the probe-based golden detection metrics."""

from __future__ import annotations

import pytest

from repro.scenario import LOAD, Scenario, ScenarioEvent, run_scenario
from repro.topology.clos import two_pod_params
from repro.workload import WorkloadReport
from repro.workload.spec import WorkloadSpec

SMALL = WorkloadSpec(name="small", matrix="permutation", flows=1500,
                     duration_ms=500, epoch_ms=25)


def run_workload(workload, params, stack, seed=0) -> WorkloadReport:
    """A ``repro load`` run: the one-op workload program."""
    spec, = LOAD.expand(params, [stack], (seed,), workload=[workload])
    metrics = run_scenario(spec.scenario, params, stack, seed)
    return WorkloadReport.from_payload(metrics.workload)


@pytest.mark.parametrize("stack", ["mtp", "bgp-bfd", "mtp-spray"])
def test_fault_free_run_completes_everything(stack):
    report = run_workload(SMALL, two_pod_params(), stack)
    assert report.flows == 1500
    assert report.completed_flows == 1500
    assert report.blackholed_flows == 0
    assert report.blackholed_bytes == 0
    assert report.max_conservation_error < 1e-9
    assert report.offered_bytes == pytest.approx(
        report.delivered_bytes + report.dropped_bytes, abs=2)
    assert report.goodput_bps > 0
    assert report.fct_p50_us > 0
    assert report.fct_p50_us <= report.fct_p99_us <= report.fct_max_us
    assert 0.0 < report.peak_link_utilization <= 1.0 + 1e-9
    assert report.hot_links  # somebody is the bottleneck
    assert report.max_blackhole_us == 0


def test_report_payload_roundtrip():
    report = run_workload(SMALL, two_pod_params(), "mtp")
    restored = WorkloadReport.from_payload(report.to_payload())
    assert restored == report


def test_epoch_records_sum_to_the_report():
    report = run_workload(SMALL, two_pod_params(), "mtp")
    assert report.epochs == len(report.epoch_records)
    offered = sum(r[2] for r in report.epoch_records)
    delivered = sum(r[3] for r in report.epoch_records)
    # per-epoch rows are individually rounded ints
    assert offered == pytest.approx(report.offered_bytes,
                                    abs=2 * report.epochs)
    assert delivered == pytest.approx(report.delivered_bytes,
                                      abs=2 * report.epochs)


def test_same_seed_same_report_across_stacks_differ():
    """Determinism per (stack, seed): identical reruns, and the seed
    reshuffles the matrix."""
    a = run_workload(SMALL, two_pod_params(), "mtp", seed=3)
    b = run_workload(SMALL, two_pod_params(), "mtp", seed=3)
    assert a.to_payload() == b.to_payload()
    c = run_workload(SMALL, two_pod_params(), "mtp", seed=4)
    assert a.to_payload() != c.to_payload()


def _loaded_tc1(stack: str):
    scenario = Scenario(
        name="tc1-loaded",
        description="TC1 under a permutation workload",
        settle="keepalive-phase",
        quiet_ms=1000,
        max_wait_ms=45_000,
        events=(
            ScenarioEvent(op="workload", at_ms=0, workload={
                "name": "tc1-load", "matrix": "permutation",
                "flows": 3000, "duration_ms": 1500, "epoch_ms": 25,
            }),
            ScenarioEvent(op="iface_down", at_ms=200, target="case:TC1"),
        ),
    )
    return run_scenario(scenario, two_pod_params(), stack, seed=0)


@pytest.mark.parametrize("stack", ["mtp", "bgp-bfd"])
def test_tc1_blackhole_window_tracks_detection_metrics(stack):
    """The acceptance check: the flow-level blackhole window under a
    TC1 failure must be consistent with the probe-based detection time
    the golden metrics measure — equal up to the epoch quantization of
    the fluid sampler (a flow's window closes at the first epoch
    boundary after the reroute)."""
    metrics = _loaded_tc1(stack)
    wl = metrics.workload
    assert wl is not None
    assert metrics.detection_us is not None and metrics.detection_us > 0
    epoch_us = 25 * 1000
    assert wl["max_blackhole_us"] > 0
    assert wl["blackhole_flow_count"] > 0
    assert wl["max_blackhole_us"] >= metrics.detection_us - epoch_us
    assert wl["max_blackhole_us"] <= metrics.detection_us + 2 * epoch_us
    assert wl["max_conservation_error"] < 1e-6
    # the fabric reconverged: the blackhole is a window, not forever
    assert wl["blackholed_flows"] == 0
    assert wl["completed_flows"] == wl["flows"]
    assert wl["blackholed_bytes"] > 0


def test_faster_detection_means_narrower_blackhole():
    """MR-MTP's 100 ms dead timer vs BGP+BFD's ~300 ms multiplier:
    the flow-level windows must order the same way the probe-based
    golden metrics do."""
    mtp = _loaded_tc1("mtp").workload
    bfd = _loaded_tc1("bgp-bfd").workload
    assert mtp["max_blackhole_us"] < bfd["max_blackhole_us"]
    assert mtp["blackholed_bytes"] < bfd["blackholed_bytes"]
