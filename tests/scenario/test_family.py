"""Scenario families: one expansion per grid, one row type, and a
fabric built once per expansion however many points it has."""

from __future__ import annotations

import sys

import pytest

import repro.topology.base as topology_base
from repro.scenario import (
    CHAOS,
    LIBRARY,
    SWEEP,
    TC_RUN,
    Checkpoint,
    ScenarioMetrics,
    ScenarioOutcome,
    get_scenario,
    scenario_task_key,
)
from repro.scenario.family import Tally
from repro.scenario.library import DEFAULT_RATES, QUIET
from repro.topology.clos import two_pod_params


def _outcome(spec, false_positives=0):
    """A finished run of ``spec``, without running it."""
    metrics = ScenarioMetrics(
        scenario=spec.scenario.name, stack=spec.stack.name, seed=spec.seed,
        settle_us=0, convergence_us=0, detection_us=None, control_bytes=0,
        update_count=0, blast_routers=[], sent=10, received=10,
        checkpoints=[Checkpoint(QUIET, 0, 0, 0,
                                false_positives=false_positives)])
    return ScenarioOutcome(metrics, "ab" * 32)


@pytest.fixture
def builds(monkeypatch):
    """Counts ``build_topology`` calls under every binding of it."""
    real = topology_base.build_topology
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro"):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_a_chaos_grid_builds_its_fabric_once(builds):
    """14 points (two stacks x seven rates), expanded, rowed and
    rendered: one fabric build, and each row's gray link is its axis."""
    specs = CHAOS.expand(two_pod_params(), ["mtp", "bgp-bfd"])
    assert len(specs) == 2 * len(DEFAULT_RATES) == 14
    rows = CHAOS.rows(specs, [_outcome(spec) for spec in specs])
    CHAOS.head(rows, Tally([s.point for s in specs], "", 0.0))
    document = CHAOS.document(rows)
    assert len(builds) == 1
    assert {tuple(p["impaired_link"]) for p in document["points"]} == {
        ("L-1-1", "S-1-1")}


def test_expansion_is_stack_major_then_seed_then_axes():
    specs = LIBRARY.expand(two_pod_params(), ["mtp", "bgp-bfd"], (0, 5),
                           scenario=[get_scenario("tc1"),
                                     get_scenario("tc2")])
    assert [(s.stack.name, s.seed, s.scenario.name) for s in specs] == [
        (stack, seed, name) for stack in ("mtp", "bgp-bfd")
        for seed in (0, 5) for name in ("tc1", "tc2")]
    assert all(s.point["stack"] is s.stack for s in specs)


def test_an_unknown_axis_is_refused():
    with pytest.raises(TypeError, match="no axis rates"):
        CHAOS.expand(two_pod_params(), ["mtp"], rates=(0.1,))


@pytest.mark.parametrize("family, name", [
    (CHAOS, "link"), (CHAOS, "probe"), (SWEEP, "ambient")])
def test_values_read_off_the_fabric_are_not_axes(family, name):
    """A fabric constant is carried by every point but is no axis, so
    no caller moves it apart from the grid."""
    with pytest.raises(TypeError, match=f"no axis {name}"):
        family.expand(two_pod_params(), ["mtp"], **{name: ((),)})


def test_ambient_loss_events_are_built_once_per_rate():
    """Every sweep point of one ambient loss rate shares one tuple of
    impair events, one event per fabric interface."""
    specs = SWEEP.expand(two_pod_params(), ["mtp"],
                         ambient_loss=(0.0, 0.01, 0.02))
    ambient = specs[0].point["ambient"]
    assert set(ambient) == {0.01, 0.02}
    assert all(spec.point["ambient"] is ambient for spec in specs)
    points = len(specs) // 3
    assert all(len(events) == points for events in ambient.values())
    for spec in specs:
        events = spec.scenario.events
        lead = ambient.get(spec.point["ambient_loss"], ())
        assert all(a is b for a, b in zip(events, lead))
        assert len(events) == len(lead) + 2   # iface_down, reachability


def test_a_row_holds_axes_metrics_checkpoints_and_digest():
    specs = CHAOS.expand(two_pod_params(), ["mtp"], loss=(0.0, 0.1))
    outcomes = [_outcome(specs[0]), None]   # the second was quarantined
    row, = CHAOS.rows(specs, outcomes)
    assert row["loss"] == 0.0 and row["window_ms"] == 5000   # axes
    assert row["stack"] == "mtp" and row["sent"] == 10       # metrics
    assert row[f"{QUIET}.false_positives"] == 0              # checkpoint
    assert row["digest"] == "ab" * 32


def test_the_point_labels_a_run_without_keying_it():
    """Two families' specs of one program are one task: the grid point
    is not part of the spec's equality or key, so ``repro fail`` and
    ``scenario run tc1`` reuse each other's cache entries."""
    fail, = TC_RUN.expand(two_pod_params(), ["mtp"])
    library, = LIBRARY.expand(two_pod_params(), ["mtp"],
                              scenario=[get_scenario("tc1")])
    assert fail.point["case"] == "TC1" and "case" not in library.point
    assert fail == library
    assert scenario_task_key(fail) == scenario_task_key(library)
