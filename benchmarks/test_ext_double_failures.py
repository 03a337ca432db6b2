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
from repro.harness.experiments import StackKind, build_and_converge
from repro.harness.failures import FailureInjector
from repro.harness.oracle import compare_with_oracle

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
    """One double-cut combination (top-level: picklable for the pool)."""
    kind, settle_us, link_i, link_j = spec
    world, topo, dep = build_and_converge(two_pod_params(), kind,
                                          trace_enabled=False)
    injector = FailureInjector(world)
    injector.cut_link(*link_i)
    injector.cut_link(*link_j)
    world.run_for(settle_us)
    bad = compare_with_oracle(dep, topo, probe_ports=(40000, 40001))
    return [(link_i, link_j, d) for d in bad]


#: uncached, so the codec is never used; the label names the two cuts
DOUBLE_CUT = TaskKind(name="double-cut", run=_pair_task, key=repr,
                      encode=lambda bad: {"bad": bad},
                      decode=lambda payload: payload["bad"],
                      label=lambda spec: f"{spec[2]} + {spec[3]}")


def run_sweep(kind: StackKind, settle_us: int, jobs: int = 1):
    world0, topo0, _ = build_and_converge(two_pod_params(), kind)
    links = fabric_links(topo0)
    combos = list(itertools.combinations(range(len(links)), 2))
    specs = [(kind, settle_us, links[i], links[j]) for i, j in combos]
    per_pair = run_tasks(DOUBLE_CUT, specs, jobs=jobs)
    disagreements = [d for pair in per_pair for d in pair]
    return len(combos), disagreements


@pytest.mark.parametrize("kind,settle", [
    (StackKind.MTP, 2 * SECOND),
    (StackKind.BGP, 8 * SECOND),
])
def test_ext_double_failure_sweep(benchmark, results_dir, kind, settle,
                                  jobs):
    combos, disagreements = benchmark.pedantic(
        lambda: run_sweep(kind, settle, jobs=jobs), rounds=1, iterations=1)
    rows = [[kind.value, combos, combos * 12, len(disagreements)]]
    emit(results_dir, f"ext_double_failures_{kind.name.lower()}",
         f"Extension — double link-cut sweep vs oracle, 2-PoD, {kind.value}",
         ["stack", "failure pairs", "pair checks", "disagreements"], rows)
    assert combos == 120
    assert disagreements == [], disagreements[:5]
