"""Golden regression on the one scheduler, inline and fanned out.

The engine fires events in (time, priority, born, seq) order and drops
cancelled ones without firing, so every run digest and every golden
metric must come out byte-identical whether tasks run serially, fanned
out to forked children, or under the supervisor.  Any divergence here
is an ordering bug, not a tolerance issue: there is no epsilon.
"""

from __future__ import annotations

import pytest

from repro.harness.executor import (
    RetryPolicy,
    assert_fanout_deterministic,
    run_tasks,
)
from repro.scenario import (
    LIBRARY,
    SCENARIO_RUN,
    TC_RUN,
    get_scenario,
    run_scenario_task,
)
from repro.topology.clos import two_pod_params

from tests.harness.test_golden_metrics import GOLDEN

# A representative slice of the golden table: the headline wide-blast
# case and a narrow fast-converging one, on the paper's stack and on
# the BGP baseline.  The full table runs in test_golden_metrics through
# run_failure_experiment; here each case runs as a campaign task.
CASES = [("mtp", "TC1"), ("mtp", "TC4"), ("bgp-bfd", "TC4")]


@pytest.mark.parametrize("stack,case", CASES)
def test_experiment_task_reproduces_golden_metrics(stack, case):
    spec = TC_RUN.expand(two_pod_params(), [stack], case=(case,))[0]
    result = run_scenario_task(spec).metrics
    conv, ctrl_bytes, updates, blast = GOLDEN[(stack, case)]
    assert result.convergence_us == conv, (
        f"drifted from golden convergence on {stack} {case}")
    assert result.control_bytes == ctrl_bytes
    assert result.update_count == updates
    assert result.blast_routers == blast


def test_scenario_library_serial_vs_pool():
    """The determinism guard: serial, jobs=2 fan-out and supervised
    execution of a scenario slice must produce identical digests (the
    guard forces two children even on a 1-core host)."""
    specs = LIBRARY.expand(
        two_pod_params(), ["mtp"],
        scenario=[get_scenario("tc2"), get_scenario("tc4")])
    digests = assert_fanout_deterministic(SCENARIO_RUN, specs, jobs=2)
    assert len(digests) == len(specs)


def test_supervised_suite_matches_serial():
    """--jobs 2 under the supervisor (a forked child per attempt) must
    reproduce the inline serial digests."""
    specs = LIBRARY.expand(two_pod_params(), ["mtp"],
                           scenario=[get_scenario("tc4")])
    serial = [run_scenario_task(s).digest for s in specs]
    supervised = run_tasks(SCENARIO_RUN, specs, jobs=2,
                           policy=RetryPolicy(max_attempts=1))
    assert [o.digest for o in supervised] == serial, (
        f"supervised jobs=2 diverged from serial: {serial}")
