"""Extension — exhaustive double-failure sweep against the oracle.

Every *pair* of fabric link cuts on the 2-PoD (16 links -> 120
combinations), for both protocol stacks, cut in copies of one converged
world: after reconvergence the deployed forwarding state must agree
exactly with the valley-free reachability oracle — deliver wherever a
valley-free path survives (no blackholes, no over-pruning) and drop
wherever none does, alike across each link-pair orbit.  Double failures
are where the paper's single-failure update rules alone would blackhole;
the default-unreachability extension (DESIGN.md §5) is what makes MR-MTP
pass this sweep.  Then BGP/BFD's ordered outage pairs up to symmetry
(tier-1 runs MR-MTP's)."""

from __future__ import annotations

import itertools
import pickle

import pytest

from repro.sim.units import SECOND
from repro.topology.clos import two_pod_params
from repro.harness.experiments import build_and_converge
from repro.harness.failures import FailureInjector
from repro.harness.oracle import disagreements
from repro.scenario.targets import fault_orbits
from repro.stacks import get_stack
from tests.integration.test_fabric_machine import outage_pairs_disagreeing

from conftest import emit


def run_sweep(kind: str, settle_us: int):
    converged = build_and_converge(two_pod_params(), kind, trace_enabled=False)
    blob, bad, per_orbit = pickle.dumps(converged), [], {}

    def orbit(*fixed) -> dict:  # link -> its orbit, with ``fixed`` fixed
        return {link: i for i, members in enumerate(fault_orbits(
            converged[1], "link", fixed)) for link in members}

    pairs = list(itertools.combinations(orbit(), 2))
    for pair in pairs:
        world, topo, dep = pickle.loads(blob)
        injector = FailureInjector(world)
        for link in pair:
            injector.cut_link(*link)
        world.run_for(settle_us)
        found = disagreements(dep, topo)
        bad += [(*pair, rack_pair) for rack_pair in found]
        # an unordered pair's orbit: the least of its two orderings'
        per_orbit.setdefault(min((orbit()[a], orbit(("link", a))[b])
                                 for a, b in (pair, pair[::-1])),
                             set()).add(len(found))
    assert all(len(counts) == 1 for counts in per_orbit.values()), per_orbit
    return len(pairs), bad


@pytest.mark.parametrize("kind,settle", [
    ("mtp", 2 * SECOND),
    ("bgp", 8 * SECOND),
])
def test_ext_double_failure_sweep(benchmark, results_dir, kind, settle):
    combos, bad = benchmark.pedantic(
        lambda: run_sweep(kind, settle), rounds=1, iterations=1)
    rows = [[get_stack(kind).display, combos, combos * 12, len(bad)]]
    emit(results_dir, f"ext_double_failures_{kind}",
         f"Extension — double link-cut sweep vs oracle, 2-PoD, {get_stack(kind).display}",
         ["stack", "failure pairs", "pair checks", "disagreements"], rows)
    assert combos == 120
    assert bad == [], bad[:5]


def test_ext_outage_pairs_up_to_symmetry_bgp_bfd():
    assert outage_pairs_disagreeing("bgp-bfd") == {}
