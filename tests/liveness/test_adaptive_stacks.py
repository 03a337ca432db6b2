"""Adaptive-stack integration: the gray-failure acceptance criteria.

* ``mtp-adaptive`` records ZERO liveness false positives at 2-10%
  ambient loss (where baseline ``mtp`` already false-flags at 2%);
* TC1 real-failure detection stays within 2x of baseline MR-MTP;
* clearing an impairment mid-dead-interval resets damping penalty
  state, so a repaired link re-converges without a stale suppression
  window (the regression this layer was built around);
* the adaptive decisions (EWMA decay, timer choices, damping penalties)
  are byte-identical serial vs ``--jobs 2`` — digest equality — and the
  monitor is a pure function of its event sequence (Hypothesis replay).
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.harness.executor import assert_fanout_deterministic
from repro.harness.experiments import build_and_converge
from repro.harness.failures import FailureInjector
from repro.liveness import DEFAULT_LIVENESS, NeighborMonitor
from repro.net.impairment import ImpairmentProfile
from repro.scenario.family import row_of
from repro.scenario.library import CHAOS, get_scenario
from repro.scenario.runner import (
    SCENARIO_RUN,
    run_scenario,
    run_scenario_task,
)
from repro.sim.units import MILLISECOND
from repro.stacks import resolve_spec
from repro.topology.clos import two_pod_params


def _chaos(stack: str, loss: float, window_ms: int = 3000):
    spec, = CHAOS.expand(two_pod_params(), [stack], loss=(loss,),
                         window_ms=(window_ms,), count=(200,))
    return row_of(spec.point, run_scenario_task(spec))


# ----------------------------------------------------------------------
# the headline tradeoff
# ----------------------------------------------------------------------
@pytest.mark.parametrize("loss", [0.02, 0.05, 0.1])
def test_mtp_adaptive_zero_false_positives_on_gray_links(loss):
    """The acceptance criterion: zero false positives at 2-10% ambient
    loss, a regime where the fixed Quick-to-Detect timer false-flags."""
    result = _chaos("mtp-adaptive", loss)
    assert result["quiet.false_positives"] == 0
    assert result["quiet.flaps"] == 0
    assert result["route_churn"] == 0


def test_baseline_mtp_still_false_flags_at_two_percent():
    """The contrast row: without the liveness layer the 2x50ms dead
    timer fires on ordinary 2% loss (this is the tradeoff the adaptive
    layer exists to fix — if this ever goes green, refresh the
    EXPERIMENTS.md table)."""
    result = _chaos("mtp", 0.02)
    assert result["quiet.false_positives"] > 0


@pytest.mark.parametrize("stack,baseline",
                         [("mtp-adaptive", "mtp"),
                          ("bgp-bfd-damped", "bgp-bfd")])
def test_real_failure_detection_within_2x_of_baseline(stack, baseline):
    """Gray tolerance must not blunt real-failure reaction: TC1 (a hard
    interface down) detects within 2x of the non-adaptive stack."""
    base = run_scenario(get_scenario("tc1"), two_pod_params(), baseline,
                        seed=0)
    adaptive = run_scenario(get_scenario("tc1"), two_pod_params(), stack,
                            seed=0)
    assert 0 < adaptive.detection_us <= 2 * base.detection_us


def test_bgp_bfd_damped_zero_false_positives():
    result = _chaos("bgp-bfd-damped", 0.1)
    assert result["quiet.false_positives"] == 0


# ----------------------------------------------------------------------
# impairment-clear resets damping (the regression)
# ----------------------------------------------------------------------
def test_clearing_impairment_mid_dead_interval_resets_damping():
    """A link with accumulated flap penalty gets REPAIRED while its dead
    timer is mid-flight: the clear event must forgive the penalty (the
    fault is gone) so the adjacency returns to service immediately,
    instead of serving out a stale suppression window."""
    world, topo, deployment = build_and_converge(
        two_pod_params(), resolve_spec("mtp-adaptive", None), seed=0)
    tor = topo.all_tors()[0]
    port = topo.fabric_ports(tor, up=True)[0]
    nbr = deployment.mtp_nodes[tor].neighbors[port]
    assert nbr.monitor is not None

    # a prior flapping episode left the adjacency suppressed
    now = world.sim.now
    for _ in range(3):
        nbr.monitor.record_flap(now)
    assert nbr.monitor.suppressed(now)

    # the link blacks out; clear it mid-dead-interval (before the
    # adaptive floor expires, so the down declaration never fires)
    injector = FailureInjector(world)
    injector.impair_link(tor, port, ImpairmentProfile(loss=1.0),
                         direction="both")
    world.run_for(100 * MILLISECOND)  # < the ~175ms adaptive floor
    assert nbr.up  # still mid-dead-interval
    injector.clear_impairment(tor, port, direction="both")

    # the repair forgave the penalty: no stale hold-down
    assert nbr.monitor.damper.penalty == 0.0
    assert not nbr.monitor.suppressed(world.sim.now)
    world.run_for(500 * MILLISECOND)
    assert nbr.up
    assert nbr.monitor.damper.penalty == 0.0


def test_gray_uplink_recovery_scenario_is_clean_for_adaptive_stacks():
    """The canonical life-cycle scenario: impair, degrade, clear, reuse
    — liveness-enabled stacks ride it out with no false positives."""
    for stack in ("mtp-adaptive", "bgp-bfd-damped"):
        metrics = run_scenario(get_scenario("gray-uplink-recovery"),
                               two_pod_params(), stack, seed=0)
        assert metrics.false_positives == 0
        assert metrics.flaps == 0


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def test_adaptive_chaos_digests_serial_vs_parallel():
    """Damping decay and adaptive timer choices are pure functions of
    event times, so the chaos digests are byte-identical at --jobs 2."""
    specs = CHAOS.expand(two_pod_params(),
                         ["mtp-adaptive", "bgp-bfd-damped"],
                         loss=(0.0, 0.1), window_ms=(1500,), count=(100,))
    digests = assert_fanout_deterministic(SCENARIO_RUN, specs, jobs=2)
    assert len(set(digests)) == len(specs)


EVENTS = st.lists(
    st.tuples(st.integers(min_value=1, max_value=400_000),
              st.sampled_from(["arrival", "flap", "poll"])),
    min_size=1, max_size=60,
)


@given(events=EVENTS)
def test_monitor_decisions_replay_identically(events):
    """The monitor's outputs (interval, suppression, penalty) are a pure
    function of its event sequence — replaying the same schedule on a
    fresh monitor reproduces every decision exactly, the unit-level fact
    behind serial == parallel digest equality."""

    def run():
        mon = NeighborMonitor(DEFAULT_LIVENESS, period_us=50_000,
                              base_detection_us=100_000)
        out = []
        now = 0
        for gap, kind in events:
            now += gap
            if kind == "arrival":
                mon.observe(now)
            elif kind == "flap":
                mon.record_flap(now)
            else:
                mon.suppressed(now)
            out.append((mon.detection_interval_us(),
                        mon.suppressed(now),
                        mon.damper.penalty))
        return out

    first, second = run(), run()
    assert first == second
    for interval, _, _ in first:
        assert 100_000 <= interval <= int(100_000 * DEFAULT_LIVENESS.max_scale)
