"""Multi-seed aggregation."""

from __future__ import annotations

import pytest

from repro.core.config import MtpTimers
from repro.harness.analysis import (
    Aggregate,
    compare_stacks,
    failure_study,
    speedup,
)
from repro.harness.experiments import StackTimers
from repro.topology.clos import two_pod_params


class TestAggregate:
    def test_of_basic_stats(self):
        agg = Aggregate.of([1.0, 2.0, 3.0])
        assert agg.mean == 2.0
        assert agg.minimum == 1.0 and agg.maximum == 3.0
        assert agg.n == 3
        assert agg.stdev == pytest.approx(1.0)

    def test_single_value_has_zero_stdev(self):
        agg = Aggregate.of([5.0])
        assert agg.stdev == 0.0 and agg.n == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Aggregate.of([])

    def test_str_format(self):
        assert "±" in str(Aggregate.of([1.0, 2.0]))

    def test_speedup(self):
        assert speedup(Aggregate.of([10.0]), Aggregate.of([2.0])) == 5.0
        with pytest.raises(ZeroDivisionError):
            speedup(Aggregate.of([1.0]), Aggregate.of([0.0]))


class TestFailureStudy:
    def test_seeds_vary_with_timing_noise(self):
        timers = StackTimers(mtp=MtpTimers(jitter=0.3))
        study = failure_study(two_pod_params(), "mtp", "TC1",
                              seeds=range(3), timers=timers)
        assert study.convergence_ms.n == 3
        # the settle-phase draw plus hello jitter must produce variance
        assert study.convergence_ms.stdev > 0
        # but the deterministic metrics stay fixed
        assert study.control_bytes.stdev == 0
        assert study.blast_radius.stdev == 0

    def test_same_seed_reproduces_exactly(self):
        a = failure_study(two_pod_params(), "mtp", "TC1", seeds=[7])
        b = failure_study(two_pod_params(), "mtp", "TC1", seeds=[7])
        assert a.convergence_ms.mean == b.convergence_ms.mean
        assert a.runs[0].blast_routers == b.runs[0].blast_routers

    def test_compare_stacks_orders_protocols(self):
        studies = compare_stacks(two_pod_params(), "TC1", seeds=[0, 1],
                                 stacks=("mtp", "bgp"))
        assert (studies["mtp"].convergence_ms.mean
                < studies["bgp"].convergence_ms.mean)
