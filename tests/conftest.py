"""Shared fixtures."""

from __future__ import annotations

import pytest

from repro.net.world import World
from repro.stack.addresses import Ipv4Address


try:
    from hypothesis import settings
except ImportError:  # the architecture lint runs without Hypothesis
    pass
else:
    # ``pytest --hypothesis-profile soak tests/integration/test_fabric_machine.py``:
    # the fabric machine at soak size, on a random seed.  The machine runs
    # at its tier-1 size under every other profile.
    settings.register_profile("soak", max_examples=200,
                              stateful_step_count=30, deadline=None)


@pytest.fixture
def world() -> World:
    return World(seed=42)


def make_ip_pair(world: World):
    """Two nodes A--B with IP stacks and addresses 10.0.0.1/24, 10.0.0.2/24."""
    from repro.iputil.stack import IpStack

    a = world.add_node("A", tier=1)
    b = world.add_node("B", tier=1)
    link = world.connect(a, b)
    link.end_a.assign_address(Ipv4Address.parse("10.0.0.1"), 24)
    link.end_b.assign_address(Ipv4Address.parse("10.0.0.2"), 24)
    sa = IpStack(a)
    sb = IpStack(b)
    sa.install_connected_routes()
    sb.install_connected_routes()
    return a, b, sa, sb
