"""Declarative scenario engine: scriptable fault/traffic workloads.

A :class:`Scenario` turns a fault/traffic experiment into data — an
ordered list of timestamped events with symbolic targets — that
serializes to canonical JSON, compiles onto the simulation engine
against any registered stack, and runs through the campaign executor
as its one task kind (``SCENARIO_RUN``).  Every campaign is a
:class:`Family`: grid axes and a program that expand to scenario runs
and read back as rows (failure seed batches, sweep points, chaos points
and ``repro load`` runs included).  The canonical library ships
thirteen scenarios (``tc1``–``tc4``, ``flap-storm``, ``double-cut``,
``drain``, ``rolling-restart``, ``gray-uplink``, ``lossy-spine``,
``incast-storm``, ``hotspot-drain``, ``gray-uplink-recovery``) and the
campaign families; see README "Scenarios" and "Campaigns".
"""

from repro.scenario.model import (
    SCENARIO_SCHEMA,
    Scenario,
    ScenarioError,
    ScenarioEvent,
)
from repro.scenario.targets import (
    FailurePoint,
    TargetResolver,
    fabric_failure_points,
    gray_link,
)
from repro.scenario.compiler import (
    Checkpoint,
    CompiledScenario,
    ScenarioMetrics,
    compile_scenario,
)
from repro.scenario.runner import (
    SCENARIO_RUN,
    NoCrossingFlowError,
    PacketLossResult,
    ScenarioOutcome,
    ScenarioRunSpec,
    average_failure_runs,
    decode_scenario_outcome,
    encode_scenario_outcome,
    run_failure_experiment,
    run_packet_loss_experiment,
    run_scenario,
    run_scenario_task,
    scenario_task_key,
)
from repro.scenario.family import Family, Row
from repro.scenario.library import (
    CANONICAL,
    CHAOS,
    LIBRARY,
    LOAD,
    SWEEP,
    TC_RUN,
    TC_SCENARIOS,
    TC_SEEDS,
    canonical_scenarios,
    get_scenario,
)

__all__ = [
    "CANONICAL",
    "CHAOS",
    "Checkpoint",
    "CompiledScenario",
    "FailurePoint",
    "Family",
    "LIBRARY",
    "LOAD",
    "NoCrossingFlowError",
    "PacketLossResult",
    "Row",
    "SCENARIO_RUN",
    "SCENARIO_SCHEMA",
    "SWEEP",
    "Scenario",
    "ScenarioError",
    "ScenarioEvent",
    "ScenarioMetrics",
    "ScenarioOutcome",
    "ScenarioRunSpec",
    "TC_RUN",
    "TC_SCENARIOS",
    "TC_SEEDS",
    "TargetResolver",
    "average_failure_runs",
    "canonical_scenarios",
    "compile_scenario",
    "decode_scenario_outcome",
    "encode_scenario_outcome",
    "fabric_failure_points",
    "get_scenario",
    "gray_link",
    "run_failure_experiment",
    "run_packet_loss_experiment",
    "run_scenario",
    "run_scenario_task",
    "scenario_task_key",
]
