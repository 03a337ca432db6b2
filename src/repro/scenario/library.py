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

The campaign families (:mod:`repro.scenario.family`) live here too, one
per campaign command: :data:`LIBRARY` (``scenario run``), :data:`TC_RUN`
and :data:`TC_SEEDS` (``fail``), :data:`LOSS` (``loss``, Figs. 7/8),
:data:`SWEEP`, :data:`CHAOS` and :data:`LOAD`.
"""

from __future__ import annotations

import statistics

from repro.sim.units import MILLISECOND, SECOND
from repro.stacks import get_stack
from repro.harness.digest import stable_seed
from repro.harness.experiments import detection_bound_us, stale_hold_us
from repro.harness.report import render_table
from repro.scenario.family import Family, outcome_of
from repro.scenario.model import Scenario, ScenarioError, ScenarioEvent
from repro.scenario.runner import encode_scenario_outcome
from repro.scenario.targets import (
    fabric_failure_points,
    gray_link,
    loss_racks,
)
from repro.workload import CANONICAL_WORKLOADS, WorkloadReport
from repro.workload.spec import resolve_workload


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
        raise ScenarioError(
            f"unknown scenario {name!r}; canonical library: "
            f"{', '.join(scenarios)}")
    return scenarios[name]


# ----------------------------------------------------------------------
# campaign families: one per campaign command
# ----------------------------------------------------------------------
def _wall_clock(noun: str):
    return lambda rows, tally: [
        f"{len(tally.points)} {noun} ({tally.describe}), "
        f"{tally.elapsed_s:.2f} s wall clock"]


def _detection_ms(stack) -> int:
    """The stack's detection bound, rounded up to whole milliseconds."""
    return -(-detection_bound_us(stack) // MILLISECOND)


def _conv_ms(row) -> float:
    return row["convergence_us"] / MILLISECOND


def _run_line(row) -> str:
    line = (f"{row['stack']:<16} {row['scenario']:<16} "
            f"conv {_conv_ms(row):9.2f} ms, "
            f"{row['control_bytes']:>6} B / {row['update_count']:>3} updates, "
            f"blast {len(row['blast_routers'])}")
    if row["sent"]:
        line += (f", traffic {row['received']}/{row['sent']} "
                 f"(blackhole {row['blackhole_us'] / 1000:.0f} ms)")
    if row["fib_loops"] or row["fib_blackholes"]:
        line += (f", anomalies {row['fib_loops']} loops / "
                 f"{row['fib_blackholes']} blackholes "
                 f"({row['fib_blackhole_us'] / 1000:.0f} ms)")
    return line


#: ``scenario run``: library scenarios (or a file's) on every stack
LIBRARY = Family(
    name="library", axes={"scenario": CANONICAL},
    program=lambda point: point["scenario"], line=_run_line,
    foot=_wall_clock("scenario runs"),
    document=lambda rows: {"runs": [encode_scenario_outcome(outcome_of(row))
                                    for row in rows]})


# --- fail: a TC case, one run or a seed batch (Figs. 4-6 average these)
def tc_seeds(base_seed: int, runs: int) -> tuple[int, ...]:
    """A ``fail --runs`` batch's seeds, derived from ``base_seed`` the
    same way in every process and interpreter."""
    return tuple(stable_seed("failure-batch", base_seed, i)
                 for i in range(runs))


def _display(stack) -> str:
    return get_stack(getattr(stack, "name", stack)).display


def _tc_block(row) -> str:
    return (f"{_display(row['stack'])}, {row['case']}:\n"
            f"  convergence time : {_conv_ms(row):.2f} ms\n"
            f"  control overhead : {row['control_bytes']} B in "
            f"{row['update_count']} update messages\n"
            f"  blast radius     : {len(row['blast_routers'])} routers "
            f"({', '.join(row['blast_routers'])})")


def _tc_head(rows, tally) -> list[str]:
    first = tally.points[0]
    return [f"{_display(first['stack'])}, {first['case']}, "
            f"{len(tally.points)} runs ({tally.describe}):"]


def _tc_mean(rows, tally) -> list[str]:
    conv = [_conv_ms(row) for row in rows]
    return [f"  mean convergence : {statistics.mean(conv):.2f} ms "
            f"(min {min(conv):.2f}, max {max(conv):.2f})"] if conv else []


def _tc_seed_line(row) -> str:
    return (f"  seed {row['seed']:>20d}: conv {_conv_ms(row):9.2f} ms, "
            f"{row['control_bytes']} B / {row['update_count']} updates, "
            f"blast {len(row['blast_routers'])}")


TC_RUN = Family(name="tc", axes={"case": ("TC1",)},
                program=lambda point: TC_SCENARIOS[point["case"]],
                line=_tc_block)
TC_SEEDS = Family(name="tc-seeds", axes=TC_RUN.axes, program=TC_RUN.program,
                  line=_tc_seed_line, head=_tc_head, foot=_tc_mean)


# --- loss: packets lost by a flow across a failing link (Figs. 7/8) ----
#: the flow runs this long before the failure, and this long after it
LOSS_LEAD_MS = 500
LOSS_TAIL_MS = 5000


def _loss_flow(point) -> tuple[str, str]:
    """The point's flow as ``(source, destination)`` host: ``near``
    sends from the rack beside the failure (Fig. 7), ``far`` toward it
    (Fig. 8)."""
    near, far, _ = point["racks"][point["case"]]
    if point["direction"] not in ("near", "far"):
        raise ValueError(
            f"direction must be near/far, got {point['direction']!r}")
    return (near, far) if point["direction"] == "near" else (far, near)


def _loss_program(point) -> Scenario:
    """No settle, the flow at 0 ms on the first source port whose path
    crosses the failing link (``via``), the failure
    :data:`LOSS_LEAD_MS` in, stopped by the update-quiesce rule, whose
    quiet window lets the last packets drain."""
    case, rate = point["case"], point["rate"]
    src, dst = _loss_flow(point)
    count = (LOSS_LEAD_MS + LOSS_TAIL_MS) * MILLISECOND // (SECOND // rate)
    return Scenario(
        name=f"loss-{case.lower()}-{point['direction']}", settle=0,
        events=(ScenarioEvent(op="traffic_burst", at_ms=0, src=src, dst=dst,
                              rate_pps=rate, count=count,
                              via=f"case:{case}"),
                ScenarioEvent(op="iface_down", at_ms=LOSS_LEAD_MS,
                              target=f"case:{case}")))


def _loss_fabric(topo, grid) -> dict:
    """The constant ``racks``: per case, the first servers of its near
    and far racks (:func:`~repro.scenario.targets.loss_racks`) and its
    link."""
    cases = topo.failure_cases()
    return {"racks": {
        case: (*map(topo.first_server_of, loss_racks(topo, case)),
               f"{cases[case].node}<->{cases[case].peer_node}")
        for case in grid["case"]}}


def _loss_line(row) -> str:
    return (f"{_display(row['stack'])}, {row['case']}, "
            f"sender {row['direction']} ({row['rate']} pps, "
            f"flow src port {row['via_port']}):\n"
            f"  sent={row['sent']} received={row['received']} "
            f"lost={row['sent'] - row['received']} "
            f"dup={row['duplicated']} ooo={row['out_of_order']}")


def _loss_verdict(rows) -> list[str]:
    """A run whose flow never crossed the link measured nothing about
    the failure."""
    return ["no flow from {} to {} crosses {}".format(
                *_loss_flow(row), row["racks"][row["case"]][2])
            for row in rows if row["via_port"] is None]


#: ``loss``: each case x direction x rate, a flow between the case's
#: near and far racks, across its link
LOSS = Family(
    name="loss",
    axes={"case": ("TC1", "TC2", "TC3", "TC4"), "direction": ("near", "far"),
          "rate": (1000,)},
    program=_loss_program, fabric=_loss_fabric, line=_loss_line,
    verdict=_loss_verdict)


# --- sweep: fail each fabric interface alone, then trace every rack pair
#: how long past the detection bound and the stale hold the fabric
#: reconverges before the all-pairs check
RECONVERGE_MARGIN_MS = 1000


def _iface(point) -> str:
    return f"{point.node}.iface[{point.interface}]"


def _sweep_program(point) -> Scenario:
    """Ambient loss on every fabric interface and a workload (when
    given), one interface down at 0 ms, and the all-pairs check at the
    detection bound plus the stale hold (a graceful-restart helper still
    forwards on the failed side until it ends) plus
    :data:`RECONVERGE_MARGIN_MS`, where it stops."""
    failed = point["point"]
    lead = point["ambient"].get(point["ambient_loss"], ())
    if point["workload"] is not None:
        lead += (ScenarioEvent(op="workload", workload=point["workload"]),)
    stack = point["stack"]
    check_ms = -(-(detection_bound_us(stack) + stale_hold_us(stack))
                 // MILLISECOND) + RECONVERGE_MARGIN_MS
    return Scenario(name=f"sweep:{failed.node}:{failed.interface}", settle=0,
                    window_ms=0, events=(
                        *lead,
                        ScenarioEvent(op="iface_down", target=_iface(failed)),
                        ScenarioEvent(op="reachability", at_ms=check_ms)))


def _sweep_fabric(topo, grid) -> dict:
    """The failure points, and the constant ``ambient``: per nonzero
    ambient loss rate, its impair events, built once and shared by every
    point's program."""
    points = tuple(fabric_failure_points(topo))
    # each fabric interface impairs its tx side, so every link is lossy
    # both ways
    return {"point": points, "ambient": {
        loss: tuple(ScenarioEvent(op="impair", target=_iface(p), loss=loss,
                                  direction="tx") for p in points)
        for loss in grid["ambient_loss"] if loss > 0.0}}


def _sweep_head(rows, tally) -> list[str]:
    bad = [row for row in rows if row["unreachable"]]
    return [f"sweep: {len(rows)} failure points, "
            f"{sum(row['pairs_checked'] for row in rows)} pair checks, "
            f"{len(bad)} points with blackholes",
            *(f"  FAIL {row['point'].node}:{row['point'].interface} "
              f"(peer {row['point'].peer}): {row['unreachable'][:3]}"
              for row in bad)]


def _sweep_verdict(rows) -> list[str]:
    bad = sum(1 for row in rows if row["unreachable"])
    return [f"{bad} of {len(rows)} failure points left a rack pair "
            f"unreachable"] if bad else []


#: ``sweep``: a folded Clos with redundancy >= 2 keeps every rack pair
#: connected under any single interface failure, so an unreachable pair
#: is a protocol blackhole the paper's four TCs would miss
SWEEP = Family(
    name="sweep",
    axes={"point": (), "ambient_loss": (0.0,), "workload": (None,)},
    program=_sweep_program, fabric=_sweep_fabric,
    line=lambda row: f"{row['point'].node}:{row['point'].interface}",
    head=_sweep_head,
    foot=lambda rows, tally: [f"fan-out: {tally.describe}, "
                              f"{tally.elapsed_s:.2f} s wall clock"],
    listing=True, verdict=_sweep_verdict)


# --- chaos: detector false positives on a lossy-but-healthy link ------
#: clean fabric first (the zero-FP guard), then "barely gray" to
#: "nearly dead"
DEFAULT_RATES = (0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3)
#: the probe's tail past its last packet, on top of the detection bound
PROBE_TAIL_MS = 500
#: the checkpoint that closes the quiet window
QUIET = "quiet"
_QUIET_FIELDS = ("detections", "false_positives", "flaps", "suppressions",
                 "suppression_us", "mttr_us", "availability")
_FIB = ("fib_loops", "fib_loop_us", "fib_blackholes", "fib_blackhole_us")


def _chaos_program(point) -> Scenario:
    """Impair the gray link both ways at the point's loss rate, close a
    quiet window with no offered traffic at a ``measure`` checkpoint
    (every timer-based down-declaration in it is a false positive: the
    link is lossy, never down), then probe goodput on a flow via the
    link until the detection bound plus :data:`PROBE_TAIL_MS` after it.
    The window comes first because any MR-MTP frame proves liveness."""
    loss, window_ms, count = point["loss"], point["window_ms"], point["count"]
    if not 0.0 <= loss <= 1.0:
        raise ValueError(f"loss rate must be in [0, 1], got {loss}")
    tor, iface, agg = point["link"]
    events = []
    if loss > 0.0:
        events.append(ScenarioEvent(
            op="impair", target=f"{tor}.iface[{iface}]", loss=float(loss),
            direction="both"))
    if point["workload"] is not None:
        # a fluid workload puts no frames on the wire, so it can overlap
        # the quiet window without proving liveness
        events.append(ScenarioEvent(op="workload",
                                    workload=point["workload"]))
    events.append(ScenarioEvent(op="measure", at_ms=window_ms, label=QUIET))
    if count > 0:
        src, dst = point["probe"]
        events.append(ScenarioEvent(
            op="traffic_burst", at_ms=window_ms, src=src, dst=dst,
            rate_pps=point["pps"], count=count, via=f"{tor}--{agg}"))
    return Scenario(name=f"chaos loss={loss:.2f}", settle=0,
                    window_ms=(_detection_ms(point["stack"]) + PROBE_TAIL_MS
                               if count > 0 else 0),
                    events=tuple(events))


def _chaos_fabric(topo, grid) -> dict:
    """The constants ``link`` (the gray link) and ``probe`` (the
    goodput probe's hosts: under the link's ToR and the last ToR)."""
    tor, iface, agg = gray_link(topo)
    return {"link": (tor, iface, agg),
            "probe": (topo.first_server_of(tor),
                      topo.first_server_of(topo.all_tors()[-1]))}


def _fp(row) -> int:
    return row[f"{QUIET}.false_positives"]


def false_positive_thresholds(rows) -> dict:
    """Per stack, the smallest loss rate with a false positive in the
    quiet window (None if the detector never false-flagged)."""
    thresholds: dict = {}
    for row in rows:
        current = thresholds.setdefault(row["stack"], None)
        if _fp(row) > 0 and (current is None or row["loss"] < current):
            thresholds[row["stack"]] = row["loss"]
    return thresholds


def clean_fabric_violations(rows) -> list:
    """Rows at loss 0.0 with false positives: always a bug."""
    return [row for row in rows if row["loss"] == 0.0 and _fp(row) > 0]


def _chaos_head(rows, tally) -> list[str]:
    def cells(row):
        q = {name: row[f"{QUIET}.{name}"] for name in _QUIET_FIELDS}
        return [f"{row['loss']:.2f}", row["stack"], q["false_positives"],
                q["flaps"], q["suppressions"],
                "-" if q["mttr_us"] < 0 else f"{q['mttr_us'] / 1000:.0f}",
                f"{q['availability']:.4f}", row["route_churn"],
                f"{row['received'] / row['sent'] if row['sent'] else 1.0:.3f}"]
    table = render_table(
        "chaos: false positives vs loss rate",
        ["loss", "stack", "false-pos", "flaps", "suppr", "mttr-ms", "avail",
         "churn", "goodput"],
        [cells(row) for row in sorted(
            rows, key=lambda row: (row["stack"], row["loss"]))],
        note="false-pos = timer-based down declarations with no fault "
             "injected; the link is lossy, never down")
    return [table, ""] + [
        f"{stack}: no false positives on this grid" if threshold is None
        else f"{stack}: false-positive threshold at loss >= {threshold:.2f}"
        for stack, threshold
        in sorted(false_positive_thresholds(rows).items())]


def _chaos_point(row) -> dict:
    """A row as ``chaos --json`` prints it: the detector fields are the
    quiet window's; invariant-monitor counters appear only when nonzero."""
    return {"stack": row["stack"], "loss": row["loss"], "seed": row["seed"],
            "window_ms": row["window_ms"],
            "impaired_link": [row["link"][0], row["link"][2]],
            **{name: row[f"{QUIET}.{name}"] for name in _QUIET_FIELDS},
            **{name: row[name]
               for name in ("route_churn", "sent", "received", "digest")},
            **{name: row[name] for name in _FIB if row[name]},
            **({"workload": row["workload"]}
               if row["workload"] is not None else {})}


def chaos_verdict(rows, require_zero_fp: bool = False) -> list[str]:
    """A clean fabric's false positives; under ``require_zero_fp``, any."""
    return [f"{row['stack']} false-flagged {_fp(row)} times on a CLEAN fabric "
            f"(loss 0.0)" for row in clean_fabric_violations(rows)] + [
        f"{row['stack']} reported {_fp(row)} false positives at loss "
        f"{row['loss']:.2f} (--require-zero-fp)"
        for row in rows if require_zero_fp and _fp(row) > 0]


#: ``chaos``: the false-positive suite, a loss-rate x stack grid on the
#: gray link (the first ToR's first fabric uplink)
CHAOS = Family(
    name="chaos",
    axes={"loss": DEFAULT_RATES, "window_ms": (5000,), "pps": (500,),
          "count": (1000,), "workload": (None,)},
    program=_chaos_program, fabric=_chaos_fabric,
    line=lambda row: f"{row['stack']} loss={row['loss']:.2f}",
    head=_chaos_head,
    foot=lambda rows, tally: ["", *_wall_clock("chaos points")(rows, tally)],
    listing=True,
    document=lambda rows: {"points": [_chaos_point(row) for row in rows],
                           "thresholds": false_positive_thresholds(rows)},
    verdict=chaos_verdict)


# --- load: a workload alone on the converged fabric -------------------
def _load_program(point) -> Scenario:
    """The workload at 0 ms, no settle, stopped the instant it ends."""
    workload = resolve_workload(point["workload"])
    return Scenario(name=workload.name, description=workload.description,
                    settle=0, window_ms=0,
                    events=(ScenarioEvent(op="workload",
                                          workload=workload.to_payload()),))


def _load_line(row) -> str:
    report = WorkloadReport.from_payload(row["workload"])
    delivered = (report.delivered_bytes / report.offered_bytes
                 if report.offered_bytes else 1.0)
    return (f"{report.workload:<12} {report.matrix:<12} "
            f"{report.flows:>9} flows  "
            f"goodput {report.goodput_bps / 1e9:7.3f} Gbps  "
            f"delivered {delivered:6.1%}  "
            f"fct p50 {report.fct_p50_us / 1000:8.2f} ms  "
            f"p99 {report.fct_p99_us / 1000:9.2f} ms  "
            f"blackholed {report.blackholed_flows}")


def _load_verdict(rows) -> list[str]:
    reports = [WorkloadReport.from_payload(row["workload"]) for row in rows]
    return [f"{r.workload}: byte conservation violated "
            f"(error {r.max_conservation_error:.2e})"
            for r in reports if r.max_conservation_error > 1e-6]


#: ``load``: each workload preset (or a given spec) on every stack
LOAD = Family(name="load", axes={"workload": CANONICAL_WORKLOADS},
              program=_load_program, line=_load_line,
              foot=_wall_clock("loaded runs"), verdict=_load_verdict)
