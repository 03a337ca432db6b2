"""Declarative scenario engine: scriptable fault/traffic workloads.

A :class:`Scenario` turns a fault/traffic experiment into data — an
ordered list of timestamped events with symbolic targets — that
serializes to canonical JSON, compiles onto the simulation engine
against any registered stack, and runs through the campaign executor
as its one task kind (``SCENARIO_RUN``): failure runs, sweep points,
chaos points and ``repro load`` runs are all scenario programs.  The canonical library ships
ten workloads (``tc1``–``tc4``, ``flap-storm``, ``double-cut``,
``drain``, ``rolling-restart``, ``gray-uplink``, ``lossy-spine``); see
README "Scenarios".
"""

from repro.scenario.model import (
    SCENARIO_SCHEMA,
    Scenario,
    ScenarioError,
    ScenarioEvent,
)
from repro.scenario.targets import TargetResolver
from repro.scenario.compiler import (
    Checkpoint,
    CompiledScenario,
    ScenarioMetrics,
    compile_scenario,
)
from repro.scenario.runner import (
    SCENARIO_RUN,
    PacketLossResult,
    ScenarioOutcome,
    ScenarioRunSpec,
    average_failure_runs,
    decode_scenario_outcome,
    encode_scenario_outcome,
    failure_run_specs,
    run_experiment_batch,
    run_failure_experiment,
    run_packet_loss_experiment,
    run_scenario,
    run_scenario_suite,
    run_scenario_task,
    scenario_suite_specs,
    scenario_task_key,
    workload_suite_specs,
)
from repro.scenario.library import (
    CANONICAL,
    TC_SCENARIOS,
    canonical_scenarios,
    get_scenario,
)

__all__ = [
    "CANONICAL",
    "Checkpoint",
    "CompiledScenario",
    "PacketLossResult",
    "SCENARIO_RUN",
    "SCENARIO_SCHEMA",
    "Scenario",
    "ScenarioError",
    "ScenarioEvent",
    "ScenarioMetrics",
    "ScenarioOutcome",
    "ScenarioRunSpec",
    "TC_SCENARIOS",
    "TargetResolver",
    "average_failure_runs",
    "canonical_scenarios",
    "compile_scenario",
    "decode_scenario_outcome",
    "encode_scenario_outcome",
    "failure_run_specs",
    "get_scenario",
    "run_experiment_batch",
    "run_failure_experiment",
    "run_packet_loss_experiment",
    "run_scenario",
    "run_scenario_suite",
    "run_scenario_task",
    "scenario_suite_specs",
    "scenario_task_key",
    "workload_suite_specs",
]
