"""The false-positive chaos suite: grid mechanics, the clean-fabric
zero-FP invariant, determinism (serial == parallel digests), and cache
replay."""

from __future__ import annotations

import pytest

from repro.topology.clos import two_pod_params
from repro.harness.cache import ResultCache
from repro.harness.chaos import (
    chaos_result,
    chaos_specs,
    clean_fabric_violations,
    false_positive_thresholds,
    summarize,
)
from repro.harness.executor import (
    CampaignReport,
    assert_fanout_deterministic,
    run_tasks,
)
from repro.scenario import SCENARIO_RUN, run_scenario_task, scenario_task_key


def _spec(stack="mtp", loss=0.1, **kwargs):
    kwargs.setdefault("window_ms", 1500)
    kwargs.setdefault("traffic_count", 200)
    return chaos_specs(two_pod_params(), [stack], rates=(loss,),
                       **kwargs)[0]


def run_chaos_point(spec):
    return chaos_result(spec, run_scenario_task(spec).metrics)


def _loss(spec):
    return next((e.loss for e in spec.scenario.events if e.op == "impair"),
                0.0)


# ----------------------------------------------------------------------
# single points
# ----------------------------------------------------------------------
@pytest.mark.parametrize("stack", ["mtp", "bgp-bfd"])
def test_clean_fabric_has_zero_false_positives(stack):
    """Loss 0.0 is the suite's control row: a healthy fabric must never
    false-flag, flap, or churn on any stack."""
    result = run_chaos_point(_spec(stack, loss=0.0))
    assert result.false_positives == 0
    assert result.flaps == 0
    assert result.route_churn == 0
    assert result.goodput == 1.0


def test_lossy_link_false_flags_quick_to_detect():
    """At 10% loss MR-MTP's one-missed-hello detector false-flags the
    healthy neighbour during the quiet window and pays route churn.  Every
    datagram still lands: a parent that re-admits a child it declared
    dead re-sends the JOINs it pruned, so no false flag leaves a tree
    broken for the rest of the window."""
    result = run_chaos_point(_spec("mtp", loss=0.1, window_ms=3000))
    assert result.detections >= result.false_positives > 0
    assert result.flaps > 0
    assert result.route_churn > 0
    assert result.goodput == 1.0


def test_bfd_detect_mult_rides_out_the_same_loss():
    result = run_chaos_point(_spec("bgp-bfd", loss=0.1, window_ms=3000))
    assert result.false_positives == 0
    assert result.flaps == 0


# ----------------------------------------------------------------------
# grid mechanics and analysis
# ----------------------------------------------------------------------
def test_chaos_specs_expand_stack_major():
    specs = chaos_specs(two_pod_params(), ["mtp", "bgp-bfd"],
                        rates=(0.0, 0.1), seed=3)
    assert [(s.stack.name, _loss(s)) for s in specs] == [
        ("mtp", 0.0), ("mtp", 0.1), ("bgp-bfd", 0.0), ("bgp-bfd", 0.1)]
    assert all(s.seed == 3 for s in specs)
    # every grid point gets its own cache identity
    assert len({scenario_task_key(s) for s in specs}) == 4


def test_key_depends_on_loss_and_window():
    base = scenario_task_key(_spec("mtp", loss=0.1))
    assert base == scenario_task_key(_spec("mtp", loss=0.1))
    assert base != scenario_task_key(_spec("mtp", loss=0.2))
    assert base != scenario_task_key(_spec("mtp", loss=0.1, window_ms=2500))


def test_threshold_and_violation_analysis():
    from repro.harness.chaos import ChaosResult

    def r(stack, loss, fp):
        return ChaosResult(stack=stack, loss=loss, seed=0, window_ms=1,
                           impaired_link=("t", "a"), false_positives=fp)

    results = [r("mtp", 0.0, 0), r("mtp", 0.05, 2), r("mtp", 0.1, 7),
               r("bgp-bfd", 0.0, 0), r("bgp-bfd", 0.1, 0)]
    assert false_positive_thresholds(results) == {"mtp": 0.05,
                                                  "bgp-bfd": None}
    assert clean_fabric_violations(results) == []
    results.append(r("bgp-bfd", 0.0, 1))
    assert len(clean_fabric_violations(results)) == 1
    text = summarize(results)
    assert "false-positive threshold at loss >= 0.05" in text
    assert "bgp-bfd: no false positives" not in text  # violation row kills it


# ----------------------------------------------------------------------
# determinism and cache replay
# ----------------------------------------------------------------------
def test_chaos_digests_serial_vs_parallel():
    specs = chaos_specs(two_pod_params(), ["mtp"], rates=(0.0, 0.1),
                        window_ms=1500, traffic_count=200)
    digests = assert_fanout_deterministic(SCENARIO_RUN, specs, jobs=2)
    assert len(set(digests)) == len(specs)  # distinct points, distinct runs


def test_chaos_suite_replays_from_cache(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    specs = chaos_specs(two_pod_params(), ["mtp"], rates=(0.0, 0.1),
                        window_ms=1500, traffic_count=200)
    first = CampaignReport()
    a = run_tasks(SCENARIO_RUN, specs, cache=cache, report=first)
    second = CampaignReport()
    b = run_tasks(SCENARIO_RUN, specs, cache=cache, report=second)
    assert first.executed == 2 and first.cached == 0
    assert second.executed == 0 and second.cached == 2
    assert [o.digest for o in a] == [o.digest for o in b]
    assert ([chaos_result(s, o.metrics) for s, o in zip(specs, a)]
            == [chaos_result(s, o.metrics) for s, o in zip(specs, b)])
