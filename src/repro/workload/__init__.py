"""Flow-level workload engine: millions of realistic flows on any
fabric, any stack, under chaos — without per-packet simulation.

Three layers (see DESIGN §13):

* :mod:`repro.workload.spec` — frozen, cache-keyed workload specs
  (matrix kind, elephant-mice size mix, per-tenant Poisson arrivals);
* :mod:`repro.workload.synth` — deterministic expansion against a
  topology's rack endpoints from dedicated RNG streams;
* :mod:`repro.workload.fluid` / :mod:`repro.workload.engine` — max-min
  progressive-filling rate allocation over each flow's path through the
  deployed stack's actual forwarding state, re-solved at route-change
  epochs.

A standalone loaded run (``repro load``) is a scenario program with one
``workload`` op (the ``LOAD`` family, :mod:`repro.scenario.library`).
"""

from repro.workload.spec import (
    ALL_TO_ALL,
    CANONICAL_WORKLOADS,
    HOTSPOT,
    INCAST,
    MATRIX_KINDS,
    PERMUTATION,
    UNIFORM,
    WORKLOAD_SCHEMA,
    WorkloadError,
    WorkloadSpec,
    canonical_workloads,
    get_workload,
    resolve_workload,
)
from repro.workload.synth import FlowSet, synthesize
from repro.workload.fluid import FluidProblem, link_loads, max_min_rates
from repro.workload.engine import EpochRecord, FluidWorkload, WorkloadReport

__all__ = [
    "ALL_TO_ALL",
    "CANONICAL_WORKLOADS",
    "HOTSPOT",
    "INCAST",
    "MATRIX_KINDS",
    "PERMUTATION",
    "UNIFORM",
    "WORKLOAD_SCHEMA",
    "WorkloadError",
    "WorkloadSpec",
    "canonical_workloads",
    "get_workload",
    "resolve_workload",
    "FlowSet",
    "synthesize",
    "FluidProblem",
    "link_loads",
    "max_min_rates",
    "EpochRecord",
    "FluidWorkload",
    "WorkloadReport",
]
