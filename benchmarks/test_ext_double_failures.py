"""Extension — exhaustive double-failure sweep against the oracle.

Every *pair* of fabric link cuts on the 2-PoD (16 links -> 120
combinations), for both protocol stacks: after reconvergence the deployed forwarding state
must agree exactly with the valley-free reachability oracle — deliver
wherever a valley-free path survives (no blackholes, no over-pruning)
and drop wherever none does.  Double failures are where the paper's
single-failure update rules alone would blackhole; the
default-unreachability extension (DESIGN.md §5) is what makes MR-MTP
pass this sweep.
"""

from __future__ import annotations

import itertools

import pytest

from repro.sim.units import SECOND
from repro.topology.clos import TIER_SERVER, two_pod_params
from repro.harness.executor import TaskKind, run_tasks
from repro.harness.experiments import build_and_converge
from repro.harness.failures import FailureInjector
from repro.harness.oracle import pair_verdicts
from repro.stacks import get_stack

from conftest import emit


def fabric_links(topo):
    pairs = []
    for link in topo.world.links:
        a, b = link.end_a.node, link.end_b.node
        if a.tier == TIER_SERVER or b.tier == TIER_SERVER:
            continue
        pairs.append((a.name, b.name))
    return pairs


def _pair_task(spec):
    """One double-cut combination."""
    kind, settle_us, link_i, link_j = spec
    world, topo, dep = build_and_converge(two_pod_params(), kind,
                                          trace_enabled=False)
    injector = FailureInjector(world)
    injector.cut_link(*link_i)
    injector.cut_link(*link_j)
    world.run_for(settle_us)
    return [(link_i, link_j, pair)
            for pair, verdict in pair_verdicts(dep, topo).items()
            if verdict.delivers != verdict.connected]


#: uncached, so the codec is never used; the label names the two cuts
DOUBLE_CUT = TaskKind(name="double-cut", run=_pair_task, key=repr,
                      encode=lambda bad: {"bad": bad},
                      decode=lambda payload: payload["bad"],
                      label=lambda spec: f"{spec[2]} + {spec[3]}")


def run_sweep(kind: str, settle_us: int, jobs: int = 1):
    world0, topo0, _ = build_and_converge(two_pod_params(), kind)
    links = fabric_links(topo0)
    combos = list(itertools.combinations(range(len(links)), 2))
    specs = [(kind, settle_us, links[i], links[j]) for i, j in combos]
    per_pair = run_tasks(DOUBLE_CUT, specs, jobs=jobs)
    disagreements = [d for pair in per_pair for d in pair]
    return len(combos), disagreements


@pytest.mark.parametrize("kind,settle", [
    ("mtp", 2 * SECOND),
    ("bgp", 8 * SECOND),
])
def test_ext_double_failure_sweep(benchmark, results_dir, kind, settle,
                                  jobs):
    combos, disagreements = benchmark.pedantic(
        lambda: run_sweep(kind, settle, jobs=jobs), rounds=1, iterations=1)
    rows = [[get_stack(kind).display, combos, combos * 12, len(disagreements)]]
    emit(results_dir, f"ext_double_failures_{kind}",
         f"Extension — double link-cut sweep vs oracle, 2-PoD, {get_stack(kind).display}",
         ["stack", "failure pairs", "pair checks", "disagreements"], rows)
    assert combos == 120
    assert disagreements == [], disagreements[:5]
