"""Extension — the false-positive chaos grid.

The paper argues for Quick-to-Detect (one missed 50 ms hello declares
the neighbour dead) purely on reaction speed.  This extension measures
the cost side on *gray* links: a link that loses frames but never goes
down.  Sweeping loss rate x stack shows where each stack's detector
starts false-flagging the healthy neighbour — MR-MTP's one-missed-hello
trips first, BGP's keepalive-x-3 and BFD's detect-mult-x-3 hold out to
far higher loss — and what each pays in flaps and route churn.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.harness.executor import run_tasks
from repro.scenario import CHAOS, SCENARIO_RUN
from repro.scenario.library import false_positive_thresholds
from repro.topology.clos import two_pod_params

from conftest import emit

RATES = (0.0, 0.02, 0.05, 0.1, 0.2, 0.3)
STACKS = ("mtp", "bgp", "bgp-bfd")
#: liveness-enabled variants (DESIGN §14): same protocols, adaptive
#: detection + flap damping — the grid's zero-false-positive rows
ADAPTIVE_STACKS = ("mtp-adaptive", "bgp-bfd-damped")
WINDOW_MS = 5000


def test_ext_chaos_false_positive_grid(benchmark, results_dir, jobs):
    def measure():
        specs = CHAOS.expand(two_pod_params(), STACKS + ADAPTIVE_STACKS,
                             loss=RATES, window_ms=(WINDOW_MS,))
        return CHAOS.rows(specs, run_tasks(SCENARIO_RUN, specs, jobs=jobs))

    grid = benchmark.pedantic(measure, rounds=1, iterations=1)
    # the quiet window's detector fields, the whole run's churn and goodput
    results = [SimpleNamespace(
        stack=row["stack"], loss=row["loss"],
        false_positives=row["quiet.false_positives"],
        flaps=row["quiet.flaps"], route_churn=row["route_churn"],
        goodput=row["received"] / row["sent"] if row["sent"] else 1.0)
        for row in grid]

    rows = [[r.stack, f"{r.loss:.2f}", r.false_positives, r.flaps,
             r.route_churn, f"{r.goodput:.3f}"]
            for r in results]
    thresholds = false_positive_thresholds(grid)
    note = "; ".join(
        f"{stack}: {'none on grid' if t is None else f'loss >= {t:.2f}'}"
        for stack, t in sorted(thresholds.items()))
    emit(results_dir, "ext_chaos_false_positives",
         f"Extension — false positives on a lossy-but-healthy uplink "
         f"({WINDOW_MS} ms quiet window)",
         ["stack", "loss", "false-pos", "flaps", "churn", "goodput"],
         rows, note=f"false-positive thresholds: {note}")

    by_point = {(r.stack, r.loss): r for r in results}
    # the control row: a clean fabric never false-flags, on any stack
    for stack in STACKS + ADAPTIVE_STACKS:
        clean = by_point[(stack, 0.0)]
        assert clean.false_positives == 0, stack
        assert clean.flaps == 0 and clean.route_churn == 0, stack
        assert clean.goodput == 1.0, stack
    # the aggressiveness ordering: MTP trips first, and strictly earlier
    # than both BGP variants on this grid
    assert thresholds["mtp"] is not None
    for other in ("bgp", "bgp-bfd"):
        assert (thresholds[other] is None
                or thresholds[other] > thresholds["mtp"]), other
    # once tripped, MTP keeps paying: FPs and churn at the trip point
    tripped = by_point[("mtp", thresholds["mtp"])]
    assert tripped.flaps > 0 and tripped.route_churn > 0
    # the liveness-enabled stacks: zero false positives through 20%
    # loss (the shipped guarantee is the 2-10% gray band; 30% is beyond
    # the design point — mtp-adaptive may trip there, an order of
    # magnitude more gently than baseline mtp)
    for stack in ADAPTIVE_STACKS:
        t = thresholds[stack]
        assert t is None or t >= 0.3, (stack, t)
        for rate in RATES:
            if rate <= 0.2:
                assert by_point[(stack, rate)].false_positives == 0, \
                    (stack, rate)
    at_30 = by_point[("mtp-adaptive", 0.3)]
    assert at_30.route_churn <= by_point[("mtp", 0.3)].route_churn // 4
    # a baseline detector that never tripped leaves flows on the gray
    # link, so goodput tracks the offered loss (the adaptive stacks are
    # exempt: they *depreference* the degraded link without churn, so
    # goodput can recover with zero table rewrites)...
    for r in results:
        if (r.stack in STACKS and r.loss > 0
                and r.false_positives == 0 and r.route_churn == 0):
            assert r.goodput < 1.0, (r.stack, r.loss)
    # ...while a tripped one routes around it: the false positive trades
    # churn for restored goodput (bgp-bfd at 0.3 beats plain bgp, which
    # keeps hashing onto the lossy link)
    assert by_point[("bgp-bfd", 0.3)].goodput > \
        by_point[("bgp", 0.3)].goodput
