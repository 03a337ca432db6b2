"""Coverage for FailureInjector's previously untested paths:
``flap_interface``, ``cut_link``/``restore_link``, and MR-MTP
re-acceptance after a restore (the Slow-to-Accept gate of section IV.B).
"""

from __future__ import annotations

import pytest

from repro.net.world import World
from repro.sim.units import MILLISECOND, SECOND
from repro.topology.clos import two_pod_params
from repro.core.neighbor import NeighborState
from repro.harness.experiments import build_and_converge
from repro.harness.failures import FailureInjector, UnknownTargetError


@pytest.fixture
def pair():
    world = World(seed=1)
    a = world.add_node("A", tier=1)
    b = world.add_node("B", tier=1)
    link = world.connect(a, b)
    return world, link


# ----------------------------------------------------------------------
# flap_interface
# ----------------------------------------------------------------------
def test_flap_schedules_alternating_transitions(pair):
    world, link = pair
    injector = FailureInjector(world)
    injector.flap_interface("A", link.end_a.name, period_us=10_000, count=3)
    world.run()
    assert [e.kind for e in injector.events] == ["down", "up"] * 3
    assert [e.time for e in injector.events] == [0, 10_000, 20_000, 30_000,
                                                 40_000, 50_000]
    assert link.end_a.admin_up  # the flap ends with the interface up


def test_flap_asymmetric_windows(pair):
    world, link = pair
    injector = FailureInjector(world)
    injector.flap_interface("A", link.end_a.name, period_us=5_000, count=2,
                            start_at=1_000, up_period_us=20_000)
    world.run()
    assert [e.time for e in injector.events] == [1_000, 6_000, 26_000,
                                                 31_000]
    assert injector.last_failure_time() == 26_000


# ----------------------------------------------------------------------
# cut_link / restore_link
# ----------------------------------------------------------------------
def test_cut_link_downs_both_ends(pair):
    world, link = pair
    injector = FailureInjector(world)
    injector.cut_link("A", "B")
    world.run()
    assert not link.end_a.admin_up and not link.end_b.admin_up
    assert sorted(e.node for e in injector.events) == ["A", "B"]
    assert {e.kind for e in injector.events} == {"down"}

    injector.restore_link("A", "B")
    world.run()
    assert link.end_a.admin_up and link.end_b.admin_up
    assert [e.kind for e in injector.events].count("up") == 2


def test_cut_link_scheduled_at_absolute_time(pair):
    world, link = pair
    injector = FailureInjector(world)
    injector.cut_link("A", "B", at=7_000)
    world.run()
    assert all(e.time == 7_000 for e in injector.events)


def test_cut_unknown_link_raises(pair):
    world, _ = pair
    world.add_node("C", tier=1)
    injector = FailureInjector(world)
    with pytest.raises(ValueError):
        injector.cut_link("A", "C")
    with pytest.raises(ValueError):
        injector.restore_link("A", "C")


def test_last_failure_time_requires_a_failure(pair):
    world, _ = pair
    injector = FailureInjector(world)
    with pytest.raises(ValueError):
        injector.last_failure_time()


# ----------------------------------------------------------------------
# restore after Slow-to-Accept: the MR-MTP neighbor must *not* come back
# on the first hello, only after accept_hellos consecutive ones
# ----------------------------------------------------------------------
def test_restore_link_reacceptance_is_slow_to_accept():
    world, topo, deployment = build_and_converge(
        two_pod_params(), "mtp")
    tor, agg = topo.tors[0][0][0], topo.aggs[0][0][0]
    link = world.find_link(tor, agg)
    agg_iface = (link.end_a if link.end_a.node.name == agg
                 else link.end_b)
    neighbor = deployment.mtp_nodes[agg].neighbors[agg_iface.name]
    timers = deployment.mtp_nodes[agg].timers
    assert neighbor.up

    injector = FailureInjector(world)
    injector.cut_link(tor, agg)
    world.run_for(2 * timers.dead_us)
    assert neighbor.state is NeighborState.DEAD
    assert neighbor.times_died == 1

    injector.restore_link(tor, agg)
    # well under accept_hellos * hello interval: hellos are flowing
    # again but the gate must still be closed
    world.run_for(timers.hello_us // 2)
    assert not neighbor.up
    # after enough consecutive hellos the neighbor is accepted back
    world.run_for(1 * SECOND)
    assert neighbor.up
    # and the fabric is whole again
    world.run_for(1 * SECOND)
    assert deployment.trees_complete()


def test_flap_mid_probation_restarts_acceptance_count():
    world, topo, deployment = build_and_converge(
        two_pod_params(), "mtp")
    tor, agg = topo.tors[0][0][0], topo.aggs[0][0][0]
    link = world.find_link(tor, agg)
    agg_iface = (link.end_a if link.end_a.node.name == agg
                 else link.end_b)
    neighbor = deployment.mtp_nodes[agg].neighbors[agg_iface.name]
    timers = deployment.mtp_nodes[agg].timers

    injector = FailureInjector(world)
    injector.cut_link(tor, agg)
    world.run_for(2 * timers.dead_us)
    assert neighbor.state is NeighborState.DEAD

    # restore, let a hello or two through, then flap the local port:
    # the consecutive count must reset
    injector.restore_link(tor, agg)
    world.run_for(timers.hello_us + timers.hello_us // 2)
    injector.fail_interface(agg, agg_iface.name)
    world.run_for(10 * MILLISECOND)
    assert not neighbor.up
    assert neighbor._consecutive == 0
    injector.restore_interface(agg, agg_iface.name)
    world.run_for(1 * SECOND)
    assert neighbor.up


# ----------------------------------------------------------------------
# up-front target validation
# ----------------------------------------------------------------------
def test_unknown_node_raises_descriptive_error(pair):
    world, _ = pair
    injector = FailureInjector(world)
    with pytest.raises(UnknownTargetError, match="unknown node 'C'"):
        injector.fail_interface("C", "eth0")
    with pytest.raises(UnknownTargetError, match="the world has: A, B"):
        injector.fail_node("C")


def test_unknown_interface_raises_descriptive_error(pair):
    world, link = pair
    injector = FailureInjector(world)
    with pytest.raises(UnknownTargetError,
                       match="node A has no interface 'eth99'"):
        injector.fail_interface("A", "eth99")
    with pytest.raises(UnknownTargetError, match=link.end_b.name):
        injector.restore_interface("B", "nope")


def test_scheduled_injection_validates_up_front(pair):
    """A bad target fails at scheduling time, not deep inside the
    event loop thousands of simulated microseconds later."""
    world, _ = pair
    injector = FailureInjector(world)
    with pytest.raises(UnknownTargetError):
        injector.fail_interface("A", "eth99", at=world.sim.now + 10_000)
    assert injector.events == []
    world.run()  # nothing latent was scheduled


def test_unknown_target_error_is_a_key_error(pair):
    world, _ = pair
    injector = FailureInjector(world)
    with pytest.raises(KeyError):  # pre-existing catchers keep working
        injector.fail_node("missing")
    try:
        injector.fail_node("missing")
    except UnknownTargetError as exc:
        assert "missing" in str(exc)  # no KeyError repr-quoting noise


# ----------------------------------------------------------------------
# impair_link / clear_impairment (gray failures)
# ----------------------------------------------------------------------
def test_impair_link_attaches_per_direction(pair):
    from repro.net.impairment import ImpairmentProfile

    world, link = pair
    injector = FailureInjector(world)
    profile = ImpairmentProfile(loss=0.5)
    injector.impair_link("A", link.end_a.name, profile, direction="tx")
    assert link.impairment(link.end_a) is not None
    assert link.impairment(link.end_b) is None
    assert [e.kind for e in injector.events] == ["impair"]

    injector.clear_impairment("A", link.end_a.name, direction="tx")
    assert link.impairment(link.end_a) is None
    assert [e.kind for e in injector.events] == ["impair", "clear"]


def test_impair_link_both_covers_both_senders(pair):
    from repro.net.impairment import ImpairmentProfile

    world, link = pair
    injector = FailureInjector(world)
    injector.impair_link("A", link.end_a.name, ImpairmentProfile(loss=0.1))
    assert link.impairment(link.end_a) is not None
    assert link.impairment(link.end_b) is not None
    # rx from A's point of view = the peer's tx side only
    injector.clear_impairment("A", link.end_a.name, direction="rx")
    assert link.impairment(link.end_a) is not None
    assert link.impairment(link.end_b) is None


def test_impair_scheduled_at_takes_effect_then(pair):
    from repro.net.impairment import ImpairmentProfile

    world, link = pair
    injector = FailureInjector(world)
    injector.impair_link("A", link.end_a.name, ImpairmentProfile(loss=0.2),
                         at=5_000)
    injector.clear_impairment("A", link.end_a.name, at=9_000)
    assert link.impairment(link.end_a) is None  # not yet
    world.run()
    assert link.impairment(link.end_a) is None  # applied, then cleared
    assert [(e.kind, e.time) for e in injector.events] == [
        ("impair", 5_000), ("clear", 9_000)]


def test_impair_validates_targets_and_direction_up_front(pair):
    from repro.net.impairment import ImpairmentProfile

    world, link = pair
    world.add_node("C", tier=1)  # exists but has no interfaces
    injector = FailureInjector(world)
    profile = ImpairmentProfile(loss=0.1)
    with pytest.raises(UnknownTargetError, match="unknown node"):
        injector.impair_link("nope", "eth0", profile)
    with pytest.raises(UnknownTargetError, match="no interface"):
        injector.impair_link("A", "eth99", profile)
    with pytest.raises(ValueError, match="direction must be one of"):
        injector.impair_link("A", link.end_a.name, profile,
                             direction="sideways")
    # a scheduled bad call must fail now, not at fire time
    with pytest.raises(ValueError):
        injector.clear_impairment("A", link.end_a.name,
                                  direction="sideways", at=10_000)
    assert injector.events == []
    world.run()


def test_impair_uncabled_interface_raises():
    from repro.net.impairment import ImpairmentProfile

    world = World(seed=1)
    a = world.add_node("A", tier=1)
    a.add_interface("eth0")
    injector = FailureInjector(world)
    with pytest.raises(UnknownTargetError, match="not cabled"):
        injector.impair_link("A", "eth0", ImpairmentProfile(loss=0.1))
