"""``MtpNode._alive_ports`` reads neighbour tier, liveness and port state
inline; it must pick exactly the ports the per-port helpers pick, through
the paper's four failures, a graceful-restart stale hold and the restore."""

from __future__ import annotations

import pickle

import pytest

from repro.harness.experiments import build_and_converge
from repro.harness.failures import FailureInjector
from repro.sim.units import MILLISECOND
from repro.topology.clos import ClosParams

SLICE_US = 50 * MILLISECOND


def scanned_alive_ports(mtp, direction: str) -> list[str]:
    """The definition through ``_direction``, ``nbr.up`` and
    ``iface.cabled``, one call each per port."""
    result = []
    for port, nbr in mtp.neighbors.items():
        if not (nbr.up or nbr.stale_held) or mtp._direction(port) != direction:
            continue
        iface = mtp.node.interfaces[port]
        if iface.admin_up and iface.cabled:
            result.append(port)
    return sorted(result)


def assert_alive_ports_agree(deployment) -> None:
    for name, mtp in deployment.mtp_nodes.items():
        for direction in ("up", "down"):
            assert mtp._alive_ports(direction) == scanned_alive_ports(
                mtp, direction), (name, direction)


def run_checking(world, deployment, slices: int) -> None:
    for _ in range(slices):
        world.run_for(SLICE_US)
        assert_alive_ports_agree(deployment)


@pytest.fixture(scope="module", params=["mtp", "mtp-gr"])
def converged(request):
    world, topo, deployment = build_and_converge(
        ClosParams(num_pods=4), request.param, seed=0)
    return request.param, pickle.dumps((world, topo, deployment))


@pytest.mark.parametrize("case", ["TC1", "TC2", "TC3", "TC4"])
def test_alive_ports_match_the_per_port_scan(converged, case):
    stack, snapshot = converged
    world, topo, deployment = pickle.loads(snapshot)
    assert_alive_ports_agree(deployment)
    failure = topo.failure_cases()[case]
    injector = FailureInjector(world, deployment)
    injector.fail_interface(failure.node, failure.interface)
    assert_alive_ports_agree(deployment)
    # past the far end's dead timer: mtp-gr holds the silent port stale
    run_checking(world, deployment, slices=4)
    held = [(name, port) for name, mtp in deployment.mtp_nodes.items()
            for port, nbr in mtp.neighbors.items() if nbr.stale_held]
    assert bool(held) == (stack == "mtp-gr")
    # through the 1 s stale hold's expiry
    run_checking(world, deployment, slices=20)
    injector.restore_interface(failure.node, failure.interface)
    assert_alive_ports_agree(deployment)
    # Slow-to-Accept re-admits the neighbour
    run_checking(world, deployment, slices=10)
    assert not any(nbr.stale_held for mtp in deployment.mtp_nodes.values()
                   for nbr in mtp.neighbors.values())
