"""Experiment harness.

The simulator-side equivalent of the paper's FABRIC automation suite
[29]: deploy a protocol stack onto a built topology, converge it, inject
interface failures at the paper's test points, monitor update traffic for
convergence, and compute the performance metrics of section V.
"""

from repro.harness.convergence import ConvergenceMonitor, converge_from_cold
from repro.harness.failures import FailureInjector
from repro.harness.metrics import (
    blast_radius,
    control_overhead_bytes,
    keepalive_overhead,
    snapshot_table_change_counts,
)
from repro.stacks import (
    Deployment,
    StackDefinition,
    StackSpec,
    StackTimers,
    available_stacks,
    get_stack,
    register_stack,
    resolve_spec,
)
from repro.harness.cache import ResultCache, default_cache_root, task_key
from repro.harness.digest import run_digest, stable_seed, trace_digest
from repro.harness.executor import (
    CampaignReport,
    DeterminismError,
    RetryPolicy,
    TaskKind,
    assert_fanout_deterministic,
    resolve_jobs,
    run_tasks,
)

__all__ = [
    "ConvergenceMonitor",
    "converge_from_cold",
    "FailureInjector",
    "blast_radius",
    "control_overhead_bytes",
    "keepalive_overhead",
    "snapshot_table_change_counts",
    "StackSpec",
    "StackTimers",
    "Deployment",
    "StackDefinition",
    "available_stacks",
    "get_stack",
    "register_stack",
    "resolve_spec",
    "ResultCache",
    "default_cache_root",
    "task_key",
    "run_digest",
    "stable_seed",
    "trace_digest",
    "CampaignReport",
    "DeterminismError",
    "RetryPolicy",
    "TaskKind",
    "assert_fanout_deterministic",
    "resolve_jobs",
    "run_tasks",
]
