"""Scenario data model: validation, canonical JSON, round-trips."""

from __future__ import annotations

import json

import pytest

from repro.scenario import (
    SCENARIO_SCHEMA,
    Scenario,
    ScenarioError,
    ScenarioEvent,
    canonical_scenarios,
)


def simple_scenario(**overrides) -> Scenario:
    kwargs = dict(
        name="t",
        events=(ScenarioEvent(op="iface_down", at_ms=0,
                              target="case:TC1"),),
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


# ----------------------------------------------------------------------
# event validation
# ----------------------------------------------------------------------
def test_unknown_op_rejected():
    with pytest.raises(ScenarioError, match="unknown scenario op"):
        ScenarioEvent(op="meteor_strike", target="tor[0]")


def test_missing_required_field_rejected():
    with pytest.raises(ScenarioError, match="missing field 'target'"):
        ScenarioEvent(op="iface_down")
    with pytest.raises(ScenarioError, match="missing field"):
        ScenarioEvent(op="traffic_burst", src="server:tor[0]",
                      dst="server:tor[1]")


def test_field_not_valid_for_op_rejected():
    with pytest.raises(ScenarioError, match="not valid"):
        ScenarioEvent(op="iface_down", target="case:TC1", rate_pps=100)
    with pytest.raises(ScenarioError, match="not valid"):
        ScenarioEvent(op="pause", duration_ms=100, label="x")


def test_negative_and_nonpositive_values_rejected():
    with pytest.raises(ScenarioError, match="at_ms"):
        ScenarioEvent(op="iface_down", at_ms=-1, target="case:TC1")
    with pytest.raises(ScenarioError, match="count"):
        ScenarioEvent(op="flap_train", target="case:TC1", count=0,
                      down_ms=100)
    with pytest.raises(ScenarioError, match="rate_pps"):
        ScenarioEvent(op="traffic_burst", src="a", dst="b", rate_pps=-5,
                      count=10)


def test_flap_and_traffic_horizons():
    flap = ScenarioEvent(op="flap_train", at_ms=100, target="case:TC1",
                         count=3, down_ms=300, up_ms=700)
    assert flap.duration_ms_total() == 3 * (300 + 700)
    burst = ScenarioEvent(op="traffic_burst", src="a", dst="b",
                          rate_pps=500, count=2000)
    assert burst.duration_ms_total() == 4000
    pause = ScenarioEvent(op="pause", at_ms=0, duration_ms=1234)
    assert pause.duration_ms_total() == 1234


# ----------------------------------------------------------------------
# scenario validation
# ----------------------------------------------------------------------
def test_empty_scenario_rejected():
    with pytest.raises(ScenarioError, match="no events"):
        Scenario(name="empty")


def test_events_must_be_time_ordered():
    with pytest.raises(ScenarioError, match="ordered"):
        Scenario(name="x", events=(
            ScenarioEvent(op="iface_down", at_ms=100, target="case:TC1"),
            ScenarioEvent(op="iface_up", at_ms=50, target="case:TC1"),
        ))


def test_bad_settle_rejected():
    with pytest.raises(ScenarioError, match="settle"):
        simple_scenario(settle="whenever")
    with pytest.raises(ScenarioError, match="settle"):
        simple_scenario(settle=-3)
    assert simple_scenario(settle=0).settle == 0
    assert simple_scenario(settle="keepalive-phase").settle == \
        "keepalive-phase"


def test_horizon_covers_last_event_tail():
    scenario = Scenario(name="x", events=(
        ScenarioEvent(op="node_crash", at_ms=0, target="agg[0]"),
        ScenarioEvent(op="pause", at_ms=1000, duration_ms=2000),
    ))
    assert scenario.horizon_ms() == 3000


def test_symbolic_targets_in_first_use_order():
    scenario = Scenario(name="x", events=(
        ScenarioEvent(op="traffic_burst", at_ms=0, src="server:tor[0]",
                      dst="server:tor[3]", rate_pps=500, count=5),
        ScenarioEvent(op="node_crash", at_ms=10, target="any-agg"),
        ScenarioEvent(op="node_restart", at_ms=20, target="any-agg"),
    ))
    assert scenario.symbolic_targets() == (
        "server:tor[0]", "server:tor[3]", "any-agg")


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------
def test_canonical_json_roundtrip_of_every_library_scenario():
    for scenario in canonical_scenarios().values():
        text = scenario.to_json()
        assert Scenario.from_json(text) == scenario
        # canonical form: sorted keys, no whitespace noise, fixed schema
        payload = json.loads(text)
        assert payload["schema"] == SCENARIO_SCHEMA
        assert " " not in text.split('"description"')[0]


def test_event_payload_omits_unset_fields():
    event = ScenarioEvent(op="iface_down", at_ms=5, target="case:TC2")
    assert event.to_payload() == {"op": "iface_down", "at_ms": 5,
                                  "target": "case:TC2"}


def test_from_payload_rejects_unknown_fields_and_schema():
    good = simple_scenario().to_payload()
    bad = dict(good, voltage=11)
    with pytest.raises(ScenarioError, match="unknown fields"):
        Scenario.from_payload(bad)
    with pytest.raises(ScenarioError, match="schema"):
        Scenario.from_payload(dict(good, schema=99))
    with pytest.raises(ScenarioError, match="unknown fields"):
        Scenario.from_payload(dict(
            good, events=[{"op": "iface_down", "target": "x",
                           "blast_radius": 3}]))


def test_from_json_rejects_malformed_text():
    with pytest.raises(ScenarioError, match="not valid JSON"):
        Scenario.from_json("{nope")


# ----------------------------------------------------------------------
# impairment events (schema 2)
# ----------------------------------------------------------------------
def test_impair_event_validates_profile_up_front():
    # a bare impair with no knobs is a no-op: rejected
    with pytest.raises(ScenarioError, match="no-op"):
        ScenarioEvent(op="impair", target="case:TC1")
    with pytest.raises(ScenarioError, match="unknown impairment preset"):
        ScenarioEvent(op="impair", target="case:TC1", profile="sparkly")
    with pytest.raises(ScenarioError, match="probability"):
        ScenarioEvent(op="impair", target="case:TC1", loss=1.5)
    with pytest.raises(ScenarioError, match="direction"):
        ScenarioEvent(op="impair", target="case:TC1", loss=0.1,
                      direction="sideways")


def test_impair_event_resolves_preset_with_overrides():
    event = ScenarioEvent(op="impair", target="case:TC1", profile="gray",
                          loss=0.3, direction="rx")
    profile = event.impairment_profile()
    assert profile.loss == 0.3
    assert profile.corrupt > 0  # inherited from the preset


def test_impair_fields_rejected_on_other_ops():
    with pytest.raises(ScenarioError, match="not valid"):
        ScenarioEvent(op="iface_down", target="case:TC1", loss=0.1)


def test_impair_event_payload_roundtrip():
    event = ScenarioEvent(op="impair", at_ms=10, target="case:TC1",
                          loss=0.1, jitter_us=200, direction="both")
    assert event.to_payload() == {
        "op": "impair", "at_ms": 10, "target": "case:TC1",
        "direction": "both", "loss": 0.1, "jitter_us": 200}
    assert ScenarioEvent.from_payload(event.to_payload()) == event


def test_impair_is_not_a_down_op():
    """An impaired link is degraded, not down: detections it provokes
    count as false positives, and the detection-time metric ignores it."""
    from repro.harness.failures import FAULT_OPS
    assert not FAULT_OPS["impair"].outage
    assert not FAULT_OPS["clear_impairment"].outage


# ----------------------------------------------------------------------
# the window stop rule and the fixed-window ops
# ----------------------------------------------------------------------
def test_window_ms_is_emitted_only_when_set():
    plain = simple_scenario()
    assert "window_ms" not in plain.to_payload()
    windowed = simple_scenario(window_ms=0)
    assert windowed.to_payload()["window_ms"] == 0
    assert Scenario.from_payload(windowed.to_payload()) == windowed
    assert Scenario.from_json(windowed.to_json()) == windowed


@pytest.mark.parametrize("bad", [-1, 1.5, True, "5"])
def test_bad_window_rejected(bad):
    with pytest.raises(ScenarioError, match="window_ms"):
        simple_scenario(window_ms=bad)


def test_via_selects_the_flow_instead_of_src_port():
    burst = dict(op="traffic_burst", src="server:tor[0]",
                 dst="server:tor[1]", rate_pps=100, count=10)
    assert ScenarioEvent(**burst, via="case:TC1").via == "case:TC1"
    with pytest.raises(ScenarioError, match="src_port and via"):
        ScenarioEvent(**burst, src_port=40000, via="case:TC1")
    with pytest.raises(ScenarioError, match="not valid"):
        ScenarioEvent(op="iface_down", target="case:TC1", via="case:TC1")


def test_isolate_is_a_down_op_and_reachability_takes_no_fields():
    from repro.harness.failures import FAULT_OPS

    assert FAULT_OPS["isolate"].outage
    assert ScenarioEvent(op="reachability", at_ms=3).to_payload() == {
        "op": "reachability", "at_ms": 3}
    with pytest.raises(ScenarioError, match="not valid"):
        ScenarioEvent(op="reachability", target="tor[0]")
