"""Extension — failure cases beyond TC1-TC4 (paper section IX).

The paper's future work lists "extended failure test cases"; the
simulator makes them cheap: whole-device failures (an agg and a top
spine) and bidirectional link cuts, compared across the three stacks.
A link *cut* differs from the paper's one-sided admin-down: both ends
detect locally and immediately, so even plain BGP converges fast.
"""

from __future__ import annotations

from repro.sim.units import MILLISECOND
from repro.topology.clos import two_pod_params
from repro.harness.experiments import StackKind, StackTimers
from repro.scenario import Scenario, ScenarioEvent, run_scenario

from conftest import emit

STACKS = (StackKind.MTP, StackKind.BGP, StackKind.BGP_BFD)


def run_case(kind, event):
    """One fault at 0 ms on the converged fabric, no settle, measured
    until updates quiesce (the detection bound plus 1 s at least)."""
    scenario = Scenario(name="ext-failure", settle=0, events=(event,))
    metrics = run_scenario(scenario, two_pod_params(), kind,
                           timers=StackTimers())
    return (metrics.convergence_us, metrics.control_bytes,
            len(metrics.blast_routers))


# a node "down" isolates the device — every interface drops, the agent
# stays up — unlike node_crash, which takes the agent with it
CASES = {
    "agg-node-down": ScenarioEvent(op="isolate", target="agg[0][0]"),
    "top-node-down": ScenarioEvent(op="isolate", target="top[0][0]"),
    "tor-agg-cut": ScenarioEvent(op="link_cut",
                                 target="tor[0][0]--agg[0][0]"),
    "agg-top-cut": ScenarioEvent(op="link_cut",
                                 target="agg[0][0]--top[0][0]"),
}


def test_ext_failure_cases(benchmark, results_dir):
    results = benchmark.pedantic(
        lambda: {
            (name, kind): run_case(kind, event)
            for name, event in CASES.items()
            for kind in STACKS
        },
        rounds=1, iterations=1,
    )
    rows = [
        [name, kind.value, f"{conv / MILLISECOND:.2f}", ctrl, blast]
        for (name, kind), (conv, ctrl, blast) in sorted(
            results.items(), key=lambda kv: (kv[0][0], kv[0][1].value))
    ]
    emit(results_dir, "ext_failure_cases",
         "Extension — node failures and bidirectional link cuts, 2-PoD",
         ["case", "stack", "conv ms", "ctrl B", "blast"], rows)

    for name in CASES:
        mtp_conv, mtp_ctrl, _ = results[(name, StackKind.MTP)]
        bgp_conv, bgp_ctrl, _ = results[(name, StackKind.BGP)]
        # sub-millisecond tolerance: when both stacks detect locally the
        # ordering is down to per-update processing epsilon
        assert mtp_conv <= bgp_conv + 1 * MILLISECOND, name
        # a dead top spine generates zero updates under both stacks
        # (neighbors only drop a next hop), hence <=
        assert mtp_ctrl <= bgp_ctrl, name

    # a bidirectional cut is detected locally at both ends: every stack
    # converges below its remote-detection bound
    for kind in STACKS:
        conv, _, _ = results[("tor-agg-cut", kind)]
        assert conv < 100 * MILLISECOND, kind

    # node failures still require the neighbors' timers (the dead node
    # cannot announce anything)
    assert results[("agg-node-down", StackKind.BGP)][0] >= 2000 * MILLISECOND
    assert results[("agg-node-down", StackKind.MTP)][0] <= 150 * MILLISECOND
