"""Golden regression tests for the paper's headline metrics.

Freezes the 2-PoD TC results behind ``benchmarks/results/fig4_*`` and
``fig5_*`` (convergence time, blast radius, control overhead) into
tier-1: the simulator is bit-for-bit deterministic per seed, so these
exact values must reproduce on every machine — any drift means a
behavioral change in the engine, a protocol stack or the experiment
harness, and must fail fast here rather than silently shift the
regenerated figures.

The table is keyed by stack *registry names*: the registry-ported
builtin plugins must reproduce the exact values measured before the
stack-plugin refactor, which is what makes that refactor a refactor.

If a change is *intentional* (a protocol fix, a new counting rule),
regenerate: ``PYTHONPATH=src python -m pytest benchmarks -k "fig4 or
fig5"`` and update GOLDEN below alongside the result files.
"""

from __future__ import annotations

import pytest

from repro.topology.clos import two_pod_params
from repro.scenario import run_failure_experiment

# (stack, case) -> (convergence_us, control_bytes, update_count,
#                   blast_routers) at seed 0 — the values behind
# benchmarks/results/fig4_convergence_2pod.txt and
# fig5_blast_radius_2pod.txt.
BLAST_WIDE_MTP = ["L-1-2", "L-2-1", "L-2-2", "S-1-1", "S-2-1", "T-1", "T-2"]
BLAST_WIDE_BGP = ["L-1-1", "L-1-2", "L-2-1", "L-2-2", "S-1-1", "S-2-1",
                  "T-1", "T-2"]
BLAST_NARROW_MTP = ["S-2-1", "T-1"]
BLAST_NARROW_BGP = ["S-1-1", "S-2-1", "T-1"]

GOLDEN = {
    ("mtp", "TC1"): (95107, 123, 7, BLAST_WIDE_MTP),
    ("mtp", "TC2"): (612, 123, 7, BLAST_WIDE_MTP),
    ("mtp", "TC3"): (94695, 18, 1, BLAST_NARROW_MTP),
    ("mtp", "TC4"): (200, 18, 1, BLAST_NARROW_MTP),
    ("bgp", "TC1"): (2290827, 651, 7, BLAST_WIDE_BGP),
    ("bgp", "TC2"): (1012, 651, 7, BLAST_WIDE_BGP),
    ("bgp", "TC3"): (2290322, 97, 1, BLAST_NARROW_BGP),
    ("bgp", "TC4"): (0, 97, 1, BLAST_NARROW_BGP),
    ("bgp-bfd", "TC1"): (237422, 651, 7, BLAST_WIDE_BGP),
    ("bgp-bfd", "TC2"): (1012, 651, 7, BLAST_WIDE_BGP),
    ("bgp-bfd", "TC3"): (238177, 97, 1, BLAST_NARROW_BGP),
    ("bgp-bfd", "TC4"): (0, 97, 1, BLAST_NARROW_BGP),
}


@pytest.mark.parametrize("stack,case", sorted(GOLDEN))
def test_golden_2pod_failure_metrics(stack, case):
    expected_conv, expected_bytes, expected_updates, expected_blast = \
        GOLDEN[(stack, case)]
    result = run_failure_experiment(two_pod_params(), stack, case, seed=0)
    assert result.stack == stack
    assert result.convergence_us == expected_conv, (
        f"fig4 drift: {stack} {case} convergence "
        f"{result.convergence_us} us != golden {expected_conv} us")
    assert result.control_bytes == expected_bytes, (
        f"fig6 drift: {stack} {case} control overhead")
    assert result.update_count == expected_updates
    assert result.blast_routers == expected_blast, (
        f"fig5 drift: {stack} {case} blast radius")


def test_golden_shape_invariants():
    """The paper's qualitative ordering, restated over the golden table
    so a wholesale regeneration still has to respect the physics."""
    conv = {k: v[0] for k, v in GOLDEN.items()}
    blast = {k: len(v[3]) for k, v in GOLDEN.items()}
    for case in ("TC1", "TC3"):
        assert conv[("mtp", case)] \
            < conv[("bgp-bfd", case)] \
            < conv[("bgp", case)]
    for stack in ("mtp", "bgp", "bgp-bfd"):
        # pod-internal failures (TC3/TC4) touch fewer routers than
        # spine-facing ones (TC1/TC2)
        assert blast[(stack, "TC3")] < blast[(stack, "TC1")]
        # MR-MTP's blast radius never exceeds BGP's
        for case in ("TC1", "TC2", "TC3", "TC4"):
            assert blast[("mtp", case)] <= blast[(stack, case)]
