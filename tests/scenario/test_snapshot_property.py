"""Property: restore-then-run == cold-run.

The whole contract of the converged-world snapshot
(:class:`repro.harness.executor.WorldSnapshots`).  A task list is played through one
``WorldSnapshots`` in which every world counts as shared, so the first
task of a run of equal keys converges cold and is pickled, and each
later one runs on a restored copy — the first and later restores of the
same blob.  Every outcome (metrics payload and run digest, which hashes
the full trace from cold start on) must equal the one a plain cold run
of that spec gives.  Neighbouring tasks differ in seed or timers, so a
world key that forgot either hands a task the wrong world; a snapshot
taken after the scenario was compiled or settled carries one task's
events into the next.  Both break the equality."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bfd.messages import BfdState
from repro.bgp.config import BgpTimers
from repro.core.config import MtpTimers
from repro.harness.experiments import build_and_converge
from repro.harness.executor import WorldSnapshots, world_key
from repro.scenario import (
    ScenarioRunSpec,
    canonical_scenarios,
    encode_scenario_outcome,
    get_scenario,
    run_scenario_task,
    scenario_task_key,
)
from repro.stacks import StackTimers, available_stacks, resolve_spec
from repro.topology import resolve_topology_spec
from repro.topology.clos import two_pod_params

TIMERS = (None, StackTimers(bgp=BgpTimers(jitter=0.2),
                            mtp=MtpTimers(jitter=0.2)))

#: (scenario, seed offset, timers variant); mostly the base world, so
#: runs of equal keys — and with them restores — are the common case
RUN = st.tuples(st.sampled_from(sorted(canonical_scenarios())),
                st.sampled_from((0, 0, 0, 1)),
                st.sampled_from((0, 0, 1)))

_cold: dict[str, dict] = {}   # cold outcomes are pure functions of the spec


def cold_outcome(spec: ScenarioRunSpec) -> dict:
    key = scenario_task_key(spec)
    if key not in _cold:
        _cold[key] = encode_scenario_outcome(run_scenario_task(spec))
    return _cold[key]


def assert_restored_equals_cold(specs: list[ScenarioRunSpec]) -> None:
    snapshots = WorldSnapshots(
        key for s in specs
        for key in [world_key(s.params, s.stack, s.seed)] * 2)
    for spec in specs:
        restored = encode_scenario_outcome(
            run_scenario_task(spec, snapshots))
        assert restored == cold_outcome(spec), (
            spec.stack.name, spec.scenario.name, spec.seed)
    assert snapshots.notes == []


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(stack=st.sampled_from(available_stacks()),
       seed=st.integers(min_value=0, max_value=2**16),
       invariants=st.booleans(),
       runs=st.lists(RUN, min_size=2, max_size=4))
def test_restored_world_runs_like_a_cold_one(stack, seed, invariants, runs):
    assert_restored_equals_cold([
        ScenarioRunSpec(params=two_pod_params(),
                        stack=resolve_spec(stack, TIMERS[variant]),
                        scenario=get_scenario(name), seed=seed + offset,
                        invariants=invariants)
        for name, offset, variant in runs])


def test_restored_vl2_world_runs_like_a_cold_one():
    vl2 = resolve_topology_spec("vl2")
    assert_restored_equals_cold([
        ScenarioRunSpec(params=vl2, stack=resolve_spec(stack),
                        scenario=get_scenario(name), seed=5,
                        invariants=True)
        for stack in ("mtp", "bgp-bfd")
        for name in ("tc1", "hotspot-drain", "rolling-restart")])


def test_snapshot_taken_with_flyweights_populated_runs_like_a_cold_one():
    """The world is pickled after convergence, when every Up BFD session
    holds its transmit flyweight and every MR-MTP port its keepalive
    frame.  A restored copy carries them (checked, not assumed) and must
    still run exactly like a cold start — including tc1's detection,
    which changes what the flyweight was built from."""
    params, seed, specs = two_pod_params(), 11, []
    for stack in ("bgp-bfd", "mtp"):
        spec = resolve_spec(stack)
        key = world_key(params, spec, seed)
        snapshots = WorldSnapshots([key, key])
        build_and_converge(params, spec, seed, snapshots=snapshots)
        world, _topo, _deployment = build_and_converge(
            params, spec, seed, snapshots=snapshots)
        nodes = list(world.nodes.values())
        if stack == "mtp":
            agents = [n.mtp for n in nodes if hasattr(n, "mtp")]
            assert agents and all(
                set(m._keepalive_frames) == set(m.neighbors) for m in agents)
        else:
            sessions = [s for n in nodes if hasattr(n, "bfd")
                        for s in n.bfd.sessions.values()]
            assert sessions and all(
                s._tx_inputs == (BfdState.UP, s.your_discriminator,
                                 s.timers.tx_interval_us)
                and s._tx_packet.payload.payload.state is BfdState.UP
                for s in sessions)
        specs += [ScenarioRunSpec(params=params, stack=spec,
                                  scenario=get_scenario(name), seed=seed)
                  for name in ("tc1", "flap-storm")]
    assert_restored_equals_cold(specs)
