"""The canonical scenario library.

Thirteen shipped scenarios, runnable on any registered stack via
``python -m repro scenario run``:

* ``tc1``–``tc4`` — the paper's four interface-failure test points
  (Fig. 3), expressed declaratively.  They are the failure experiment:
  :func:`~repro.scenario.runner.run_failure_experiment` runs them, and
  at seed 0 they reproduce the golden Fig. 4/5 metrics exactly (the
  regression tests in ``tests/scenario`` hold them to it and to the
  classic hand-driven sequence);
* ``flap-storm`` — a link flaps repeatedly under crossing traffic: the
  Slow-to-Accept ablation's workload as a first-class scenario;
* ``double-cut`` — two correlated fiber cuts 50 ms apart along one
  aggregation's paths (the FatPaths-style correlated failure pattern);
* ``drain`` — maintenance drain-and-upgrade: a whole aggregation goes
  dark, sits in maintenance, and returns;
* ``rolling-restart`` — a pod-batched control-plane upgrade: each
  pod's aggregation *agents* crash together and restart 40 ms later
  under a permutation workload, with measure checkpoints between the
  waves: the cold-vs-graceful restart experiment (restart mode follows
  the stack — ``bgp-gr``/``mtp-gr`` restart gracefully, everything
  else cold-boots);
* ``gray-uplink`` — an asymmetric gray failure: one *direction* of a
  ToR uplink turns lossy and corrupting under crossing traffic.  The
  link is degraded, never down, so every timer-based down-declaration
  it provokes shows up in the ``false_positives`` metric;
* ``lossy-spine`` — an agg-top link runs at 10 % symmetric loss for
  4 s, then heals: the healthy-but-lossy regime where aggressive
  detectors (Quick-to-Detect, tight BFD) start false-flagging;
* ``incast-storm`` — a synchronized incast *workload* (the fluid
  flow-level engine, ``workload`` op) rides out a TC1-style failure
  and recovery: goodput, FCT tails and the blackhole window under
  partition-aggregate load;
* ``hotspot-drain`` — a hotspot workload while one aggregation drains
  for maintenance and returns: skewed load on reduced capacity;
* ``gray-uplink-recovery`` — the full gray-failure life cycle: the TC1
  uplink runs at 15 % symmetric loss, then the impairment clears —
  liveness-enabled stacks must degrade (not withdraw) during the gray
  phase and return the repaired link to service with no stale damping
  hold-down.

Scenarios are topology-relative (symbolic targets), so the same library
runs on 2-PoD, 4-PoD or multi-zone fabrics unchanged.
"""

from __future__ import annotations

from repro.scenario.model import Scenario, ScenarioEvent


def _tc_scenario(case: str, description: str) -> Scenario:
    return Scenario(
        name=case.lower(),
        description=f"{case} declaratively: {description}",
        settle="keepalive-phase",
        quiet_ms=1000,
        max_wait_ms=30_000,
        events=(ScenarioEvent(op="iface_down", at_ms=0,
                              target=f"case:{case}"),),
    )


TC1 = _tc_scenario("TC1", "ToR uplink fails at the ToR side")
TC2 = _tc_scenario("TC2", "ToR-agg link fails at the agg side")
TC3 = _tc_scenario("TC3", "agg uplink fails at the agg side")
TC4 = _tc_scenario("TC4", "agg-top link fails at the top side")

#: failure-case name -> its scenario (Figs. 4-6 run these)
TC_SCENARIOS = {"TC1": TC1, "TC2": TC2, "TC3": TC3, "TC4": TC4}

FLAP_STORM = Scenario(
    name="flap-storm",
    description="a ToR uplink flaps three times (300 ms down / 700 ms up) "
                "under crossing far-to-near traffic — the Slow-to-Accept "
                "gate's worst case, with the dead-timer blackhole visible "
                "as lost packets",
    settle=100,
    quiet_ms=1000,
    max_wait_ms=45_000,
    events=(
        # far rack -> failing rack, on a flow that hashes across the
        # flapping link: the remote side only reroutes after detection
        ScenarioEvent(op="traffic_burst", at_ms=0, src="server:tor[3]",
                      dst="server:tor[0]", rate_pps=500, count=2000,
                      src_port=40000),
        ScenarioEvent(op="flap_train", at_ms=200, target="case:TC1",
                      down_ms=300, up_ms=700, count=3),
    ),
)

DOUBLE_CUT = Scenario(
    name="double-cut",
    description="correlated fiber cuts: the first ToR-agg link and, 50 ms "
                "later, one of that agg's uplinks — a shared-conduit cut",
    settle="keepalive-phase",
    quiet_ms=1000,
    max_wait_ms=45_000,
    events=(
        ScenarioEvent(op="link_cut", at_ms=0, target="tor[0]--agg[0]"),
        ScenarioEvent(op="link_cut", at_ms=50, target="agg[0].uplink[any]"),
        ScenarioEvent(op="link_restore", at_ms=5000,
                      target="tor[0]--agg[0]"),
        ScenarioEvent(op="link_restore", at_ms=5050,
                      target="agg[0].uplink[any]"),
    ),
)

DRAIN = Scenario(
    name="drain",
    description="maintenance drain-and-upgrade: one randomly chosen "
                "aggregation goes dark, sits in maintenance for 3 s, "
                "then returns",
    settle="keepalive-phase",
    quiet_ms=1000,
    max_wait_ms=60_000,
    events=(
        ScenarioEvent(op="node_crash", at_ms=0, target="any-agg"),
        ScenarioEvent(op="pause", at_ms=0, duration_ms=3000),
        ScenarioEvent(op="node_restart", at_ms=3000, target="any-agg"),
    ),
)

ROLLING_RESTART = Scenario(
    name="rolling-restart",
    description="pod-batched control-plane upgrade under a permutation "
                "workload: both aggregation agents of pod 1, then of "
                "pod 2, crash and restart 40 ms later — inside every "
                "peer's detection window, so during each wave nobody "
                "can route around the batch.  A cold boot wipes the "
                "batch's tables while traffic still arrives (the "
                "blackhole window GR exists to close); a graceful "
                "restart keeps forwarding throughout",
    settle="keepalive-phase",
    quiet_ms=1000,
    max_wait_ms=60_000,
    events=(
        ScenarioEvent(op="workload", at_ms=0, workload={
            "name": "rolling-restart", "matrix": "permutation",
            "flows": 300, "duration_ms": 3200, "epoch_ms": 5,
        }),
        ScenarioEvent(op="agent_crash", at_ms=0, target="agg[0][0]"),
        ScenarioEvent(op="agent_crash", at_ms=0, target="agg[0][1]"),
        ScenarioEvent(op="agent_restart", at_ms=40, target="agg[0][0]"),
        ScenarioEvent(op="agent_restart", at_ms=40, target="agg[0][1]"),
        ScenarioEvent(op="measure", at_ms=1500, label="wave-1"),
        ScenarioEvent(op="agent_crash", at_ms=1500, target="agg[1][0]"),
        ScenarioEvent(op="agent_crash", at_ms=1500, target="agg[1][1]"),
        ScenarioEvent(op="agent_restart", at_ms=1540, target="agg[1][0]"),
        ScenarioEvent(op="agent_restart", at_ms=1540, target="agg[1][1]"),
        ScenarioEvent(op="measure", at_ms=3000, label="wave-2"),
    ),
)

GRAY_UPLINK = Scenario(
    name="gray-uplink",
    description="asymmetric gray failure: the rx direction of the TC1 "
                "uplink turns lossy+corrupting (the 'gray' preset) for "
                "3 s under crossing traffic — the link degrades but "
                "never goes down, so any down-declaration is a false "
                "positive",
    settle=100,
    quiet_ms=1000,
    max_wait_ms=45_000,
    events=(
        ScenarioEvent(op="traffic_burst", at_ms=0, src="server:tor[3]",
                      dst="server:tor[0]", rate_pps=500, count=2500,
                      src_port=40000),
        ScenarioEvent(op="impair", at_ms=200, target="case:TC1",
                      profile="gray", direction="rx"),
        ScenarioEvent(op="clear_impairment", at_ms=3200,
                      target="case:TC1", direction="rx"),
        ScenarioEvent(op="pause", at_ms=3200, duration_ms=1000),
    ),
)

LOSSY_SPINE = Scenario(
    name="lossy-spine",
    description="a spine-facing link runs at 10% symmetric loss for 4 s "
                "then heals — below hard failure, above clean, the "
                "regime where detector aggressiveness is decided",
    settle="keepalive-phase",
    quiet_ms=1000,
    max_wait_ms=45_000,
    events=(
        ScenarioEvent(op="impair", at_ms=0, target="agg[0].uplink[0]",
                      loss=0.1),
        ScenarioEvent(op="pause", at_ms=0, duration_ms=4000),
        ScenarioEvent(op="clear_impairment", at_ms=4000,
                      target="agg[0].uplink[0]"),
    ),
)

INCAST_STORM = Scenario(
    name="incast-storm",
    description="a synchronized incast workload (fluid flow-level load) "
                "rides out a TC1-style uplink failure and recovery: the "
                "report's blackhole window is the flow-level view of the "
                "same detection bound the probe scenarios measure",
    settle="keepalive-phase",
    quiet_ms=1000,
    max_wait_ms=45_000,
    events=(
        ScenarioEvent(op="workload", at_ms=0, workload={
            "name": "incast-storm", "matrix": "incast",
            "flows": 600, "duration_ms": 600, "incast_fanin": 8,
            "elephant_fraction": 0.02, "epoch_ms": 25,
        }),
        ScenarioEvent(op="iface_down", at_ms=150, target="case:TC1"),
        ScenarioEvent(op="iface_up", at_ms=400, target="case:TC1"),
    ),
)

GRAY_UPLINK_RECOVERY = Scenario(
    name="gray-uplink-recovery",
    description="a full gray-failure life cycle on the TC1 uplink: 15% "
                "symmetric loss for 3 s (liveness-enabled stacks degrade "
                "and depreference the link; aggressive baselines "
                "false-flag and may suppress), then the impairment "
                "clears and damping state resets — the repaired link "
                "must return to service without a stale hold-down",
    settle="keepalive-phase",
    quiet_ms=1000,
    max_wait_ms=60_000,
    events=(
        ScenarioEvent(op="impair", at_ms=0, target="case:TC1",
                      loss=0.15),
        ScenarioEvent(op="pause", at_ms=0, duration_ms=3000),
        ScenarioEvent(op="clear_impairment", at_ms=3000,
                      target="case:TC1"),
        ScenarioEvent(op="pause", at_ms=3000, duration_ms=1500),
    ),
)

HOTSPOT_DRAIN = Scenario(
    name="hotspot-drain",
    description="a hotspot workload (half the flows into one hot rack) "
                "while a randomly chosen aggregation drains for "
                "maintenance and returns — skewed load meeting reduced "
                "fabric capacity",
    settle="keepalive-phase",
    quiet_ms=1000,
    max_wait_ms=60_000,
    events=(
        ScenarioEvent(op="workload", at_ms=0, workload={
            "name": "hotspot-drain", "matrix": "hotspot",
            "flows": 600, "duration_ms": 600, "hotspot_fraction": 0.5,
            "epoch_ms": 25,
        }),
        ScenarioEvent(op="node_crash", at_ms=150, target="any-agg"),
        ScenarioEvent(op="node_restart", at_ms=400, target="any-agg"),
    ),
)

CANONICAL = (TC1, TC2, TC3, TC4, FLAP_STORM, DOUBLE_CUT, DRAIN,
             ROLLING_RESTART, GRAY_UPLINK, LOSSY_SPINE,
             INCAST_STORM, HOTSPOT_DRAIN, GRAY_UPLINK_RECOVERY)


def canonical_scenarios() -> dict[str, Scenario]:
    """name -> scenario, in library order."""
    return {scenario.name: scenario for scenario in CANONICAL}


def get_scenario(name: str) -> Scenario:
    scenarios = canonical_scenarios()
    if name not in scenarios:
        from repro.scenario.model import ScenarioError
        raise ScenarioError(
            f"unknown scenario {name!r}; canonical library: "
            f"{', '.join(scenarios)}")
    return scenarios[name]
