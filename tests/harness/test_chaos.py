"""The false-positive chaos suite: grid mechanics, the clean-fabric
zero-FP invariant, determinism (serial == parallel digests), and cache
replay."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.topology.clos import two_pod_params
from repro.harness.cache import ResultCache
from repro.harness.executor import (
    CampaignReport,
    assert_fanout_deterministic,
    run_tasks,
)
from repro.scenario import (
    CHAOS,
    SCENARIO_RUN,
    Checkpoint,
    ScenarioMetrics,
    ScenarioOutcome,
    run_scenario_task,
    scenario_task_key,
)
from repro.scenario.family import Tally, row_of
from repro.scenario.library import (
    QUIET,
    clean_fabric_violations,
    false_positive_thresholds,
)


def _spec(stack="mtp", loss=0.1, window_ms=1500, traffic_count=200):
    return CHAOS.expand(two_pod_params(), [stack], loss=(loss,),
                        window_ms=(window_ms,), count=(traffic_count,))[0]


def run_chaos_point(spec):
    return row_of(spec.point, run_scenario_task(spec))


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
    assert result["quiet.false_positives"] == 0
    assert result["quiet.flaps"] == 0
    assert result["route_churn"] == 0
    assert result["received"] == result["sent"] > 0


def test_lossy_link_false_flags_quick_to_detect():
    """At 10% loss MR-MTP's one-missed-hello detector false-flags the
    healthy neighbour during the quiet window and pays route churn.  Every
    datagram still lands: a parent that re-admits a child it declared
    dead re-sends the JOINs it pruned, so no false flag leaves a tree
    broken for the rest of the window."""
    result = run_chaos_point(_spec("mtp", loss=0.1, window_ms=3000))
    assert result["quiet.detections"] >= result["quiet.false_positives"] > 0
    assert result["quiet.flaps"] > 0
    assert result["route_churn"] > 0
    assert result["received"] == result["sent"] > 0


def test_bfd_detect_mult_rides_out_the_same_loss():
    result = run_chaos_point(_spec("bgp-bfd", loss=0.1, window_ms=3000))
    assert result["quiet.false_positives"] == 0
    assert result["quiet.flaps"] == 0


# ----------------------------------------------------------------------
# grid mechanics and analysis
# ----------------------------------------------------------------------
def test_chaos_specs_expand_stack_major():
    specs = CHAOS.expand(two_pod_params(), ["mtp", "bgp-bfd"], seeds=(3,),
                         loss=(0.0, 0.1))
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
    def r(stack, loss, fp):
        metrics = ScenarioMetrics(
            scenario="chaos", stack=stack, seed=0, settle_us=0,
            convergence_us=0, detection_us=None, control_bytes=0,
            update_count=0, blast_routers=[],
            checkpoints=[Checkpoint(QUIET, 0, 0, 0, false_positives=fp)])
        return row_of({"loss": loss}, ScenarioOutcome(metrics, "0" * 64))

    results = [r("mtp", 0.0, 0), r("mtp", 0.05, 2), r("mtp", 0.1, 7),
               r("bgp-bfd", 0.0, 0), r("bgp-bfd", 0.1, 0)]
    assert false_positive_thresholds(results) == {"mtp": 0.05,
                                                  "bgp-bfd": None}
    assert clean_fabric_violations(results) == []
    results.append(r("bgp-bfd", 0.0, 1))
    assert len(clean_fabric_violations(results)) == 1
    text = "\n".join(CHAOS.head(results, Tally([], "", 0.0)))
    assert "false-positive threshold at loss >= 0.05" in text
    assert "bgp-bfd: no false positives" not in text  # violation row kills it


def test_a_depreferenced_gray_link_opens_a_fluid_epoch(capsys):
    """Under load, BFD's monitor depreferences the 10% lossy link and
    the data plane leaves it; the fluid flows leave it in a fourth
    epoch rather than riding it for the rest of the window."""
    assert main(["chaos", "--stack", "bgp-bfd-damped", "--rate", "0.1",
                 "--workload", "permutation", "-W", "flows=2000",
                 "--pods", "2", "--count", "0", "--window-ms", "2000",
                 "--json", "--no-cache"]) == 0
    [point] = json.loads(capsys.readouterr().out)["points"]
    assert point["workload"]["epochs"] == 4


# ----------------------------------------------------------------------
# determinism and cache replay
# ----------------------------------------------------------------------
def test_chaos_digests_serial_vs_parallel():
    specs = CHAOS.expand(two_pod_params(), ["mtp"], loss=(0.0, 0.1),
                         window_ms=(1500,), count=(200,))
    digests = assert_fanout_deterministic(SCENARIO_RUN, specs, jobs=2)
    assert len(set(digests)) == len(specs)  # distinct points, distinct runs


def test_chaos_suite_replays_from_cache(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    specs = CHAOS.expand(two_pod_params(), ["mtp"], loss=(0.0, 0.1),
                         window_ms=(1500,), count=(200,))
    first = CampaignReport()
    a = run_tasks(SCENARIO_RUN, specs, cache=cache, report=first)
    second = CampaignReport()
    b = run_tasks(SCENARIO_RUN, specs, cache=cache, report=second)
    assert first.executed == 2 and first.cached == 0
    assert second.executed == 0 and second.cached == 2
    assert [o.digest for o in a] == [o.digest for o in b]
    assert CHAOS.rows(specs, a) == CHAOS.rows(specs, b)
