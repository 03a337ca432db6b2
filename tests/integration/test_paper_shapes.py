"""Cheap single-run versions of the paper's headline results.

The benchmarks regenerate the full figures; these tests pin the core
qualitative claims so a regression shows up in `pytest tests/` without
running the benchmark suite.
"""

from __future__ import annotations

import pytest

from repro.sim.units import MILLISECOND
from repro.topology.clos import two_pod_params
from repro.harness.executor import run_tasks
from repro.scenario import LOSS, SCENARIO_RUN, run_failure_experiment


@pytest.fixture(scope="module")
def tc1_results():
    return {
        kind: run_failure_experiment(two_pod_params(), kind, "TC1")
        for kind in ("mtp", "bgp", "bgp-bfd")
    }


@pytest.fixture(scope="module")
def tc2_results():
    return {
        kind: run_failure_experiment(two_pod_params(), kind, "TC2")
        for kind in ("mtp", "bgp", "bgp-bfd")
    }


def test_fig4_shape_remote_detection(tc1_results):
    """TC1: MR-MTP (dead timer 100 ms) << BFD (300 ms) << BGP (hold 3 s)."""
    mtp = tc1_results["mtp"].convergence_us
    bfd = tc1_results["bgp-bfd"].convergence_us
    bgp = tc1_results["bgp"].convergence_us
    assert mtp < bfd < bgp
    assert mtp <= 120 * MILLISECOND
    assert bfd <= 400 * MILLISECOND
    assert bgp >= 2000 * MILLISECOND


def test_fig4_shape_local_detection(tc2_results):
    """TC2: every stack converges faster than its detection time."""
    for kind, result in tc2_results.items():
        assert result.convergence_us < 50 * MILLISECOND, kind


def test_fig5_shape(tc1_results, tc2_results):
    for results in (tc1_results, tc2_results):
        assert (results["mtp"].blast_radius
                <= results["bgp"].blast_radius)
        assert (results["bgp"].blast_radius
                == results["bgp-bfd"].blast_radius)


def test_fig6_shape(tc1_results):
    """MR-MTP's update cascade lands near the paper's 120 B and is
    several times cheaper than BGP's."""
    mtp = tc1_results["mtp"].control_bytes
    bgp = tc1_results["bgp"].control_bytes
    assert 96 <= mtp <= 144  # paper: 120 B, ±20%
    assert bgp >= 3 * mtp


def lost(stacks, cases, direction):
    """Packets lost by each ``loss`` run, in stack-major order."""
    return [outcome.metrics.lost for outcome in run_tasks(
        SCENARIO_RUN, LOSS.expand(two_pod_params(), stacks, case=cases,
                                  direction=(direction,)))]


def test_fig7_shape_single_case():
    mtp, bgp = lost(["mtp", "bgp"], ("TC2",), "near")
    assert mtp < bgp / 10
    assert mtp <= 130  # one dead timer at 1000 pps


def test_fig8_shape_single_case():
    mtp, mtp_quiet = lost(["mtp"], ("TC1", "TC2"), "far")
    assert 20 <= mtp <= 130  # the dead-timer hole, nothing more
    assert mtp_quiet <= 10


@pytest.mark.parametrize("pods,expected_tc1,expected_tc3", [(2, 3, 1), (4, 7, 3)])
def test_fig5_paper_counting_rule(pods, expected_tc1, expected_tc3):
    """Under the paper's per-case census the MR-MTP radii are exactly
    its published 3/1 (2-PoD) and 7/3 (4-PoD):

    * TC1/TC2 — 'ToRs ... will record that a certain port cannot be
      used': count ToRs that marked a port;
    * TC3/TC4 2-PoD — 'S2_1 will remove any VIDs acquired from S1_1':
      count top spines that pruned; 4-PoD — 'all the tier 2 spines
      except S1_1': count aggs that marked a port.
    """
    from repro.topology.clos import ClosParams

    params = ClosParams(num_pods=pods)
    tc1 = run_failure_experiment(params, "mtp", "TC1")
    tors = {f"L-{p}-{t}" for p in range(1, pods + 1) for t in (1, 2)}
    tor_updates = [n for n in tc1.blast_routers if n in tors]
    assert len(tor_updates) == expected_tc1

    tc3 = run_failure_experiment(params, "mtp", "TC3")
    if pods == 2:
        tops = [n for n in tc3.blast_routers if n.startswith("T-")]
        assert len(tops) == expected_tc3
    else:
        aggs = [n for n in tc3.blast_routers
                if n.startswith("S-") and n != "S-1-1"]
        assert len(aggs) == expected_tc3
