"""Property: every injected byte lands in exactly one bucket.

Hypothesis draws workload specs (any matrix, any shape) and an ambient
impairment, and runs the fluid engine on converged clos, VL2 and DCell
fabrics: ``offered == delivered + dropped + blackholed`` must hold for
every epoch, whatever the topology family, path structure or loss
regime."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.harness.experiments import build_and_converge
from repro.net.impairment import ImpairmentProfile
from repro.scenario import fabric_failure_points
from repro.sim.units import MILLISECOND
from repro.topology.clos import two_pod_params
from repro.workload.engine import FluidWorkload
from repro.workload.spec import MATRIX_KINDS, WorkloadSpec

#: topology family -> (params, stack)
FAMILIES = {
    "clos": (two_pod_params(), "mtp"),
    "vl2": ("vl2", "bgp-bfd"),
    "dcell": ("dcell", "bgp-bfd"),
}

_fabrics: dict[str, tuple] = {}


def fabric(name):
    if name not in _fabrics:
        params, stack = FAMILIES[name]
        _fabrics[name] = build_and_converge(params, stack, seed=0)
    return _fabrics[name]


SPECS = st.builds(
    WorkloadSpec,
    name=st.just("prop"),
    matrix=st.sampled_from(MATRIX_KINDS),
    flows=st.integers(min_value=30, max_value=300),
    duration_ms=st.integers(min_value=40, max_value=200),
    tenants=st.integers(min_value=1, max_value=4),
    elephant_fraction=st.floats(min_value=0.0, max_value=0.3),
    incast_fanin=st.integers(min_value=2, max_value=8),
    epoch_ms=st.integers(min_value=10, max_value=50),
)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@given(spec=SPECS,
       loss=st.floats(min_value=0.0, max_value=0.3),
       link_pick=st.integers(min_value=0, max_value=10**6))
def test_every_byte_lands_in_exactly_one_bucket(family, spec, loss,
                                                link_pick):
    world, topo, deployment = fabric(family)
    impaired = None
    if loss > 0.0:
        points = fabric_failure_points(topo)
        point = points[link_pick % len(points)]
        iface = topo.node(point.node).interfaces[point.interface]
        impaired = iface.link
        impaired_end = iface
        impaired.set_impairment(
            iface, ImpairmentProfile(loss=loss),
            world.rng.stream("conservation-prop-impair"))
    try:
        engine = FluidWorkload(spec, topo, deployment)
        engine.start()
        world.run_for(spec.duration_ms * MILLISECOND)
        report = engine.finish()
    finally:
        if impaired is not None:
            impaired.clear_impairment(impaired_end)

    assert report.max_conservation_error < 1e-6
    assert report.offered_bytes == pytest.approx(
        report.delivered_bytes + report.dropped_bytes
        + report.blackholed_bytes, abs=3)
    for start_us, end_us, offered, delivered, dropped, blackholed \
            in report.epoch_records:
        assert end_us >= start_us
        assert min(offered, delivered, dropped, blackholed) >= 0
        assert offered == pytest.approx(
            delivered + dropped + blackholed, abs=3)
    # the two flow ledgers agree: completed + unfinished == all
    assert report.completed_flows + report.blackholed_flows <= report.flows
    if loss == 0.0:
        # a clean converged fabric delivers everything it routes
        assert report.dropped_bytes == 0
        assert report.blackholed_bytes == 0
