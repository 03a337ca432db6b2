"""Shared fixtures."""

from __future__ import annotations

import tempfile

import pytest

from repro.net.world import World
from repro.stack.addresses import Ipv4Address


try:
    from hypothesis import HealthCheck, settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # the architecture lint runs without Hypothesis
    pass
else:
    # The one place Hypothesis is configured; ``--hypothesis-profile`` is
    # the only switch.  ``tier1`` (default) draws the same examples every
    # run and runs no state machine (the fabric machine plays its program
    # table); ``soak`` (CI ``machine-soak``) is the random search: 20x the
    # examples, and the fabric machine's search at 30 steps.  A property
    # may ask for a multiple of ``settings.default.max_examples``, nothing
    # else.
    _untimed = dict(deadline=None, database=None,
                    suppress_health_check=list(HealthCheck))
    settings.register_profile("tier1", max_examples=10, derandomize=True,
                              **_untimed)
    settings.register_profile("soak", max_examples=200, stateful_step_count=30,
                              **_untimed)
    settings.load_profile("tier1")
    # Hypothesis's caches (source constants, Unicode tables) stay out of
    # the checkout: a run leaves no ``.hypothesis/`` behind
    set_hypothesis_home_dir(f"{tempfile.gettempdir()}/repro-hypothesis")


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
