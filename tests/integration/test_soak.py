"""Stability soaks: minutes of simulated time without a single flap.

Route flapping and false failure detection are the instabilities the
paper's section IV worries about; a converged fabric with jittered
timers must hold every session/neighbor up indefinitely.
"""

from __future__ import annotations

from repro.bgp.config import BgpTimers
from repro.core.config import MtpTimers
from repro.harness.experiments import StackTimers, build_and_converge
from repro.sim.units import SECOND
from repro.topology.clos import two_pod_params

SOAK_US = 120 * SECOND


def test_mtp_soak_no_false_detections():
    timers = StackTimers(mtp=MtpTimers(jitter=0.3))
    world, topo, dep = build_and_converge(two_pod_params(), "mtp",
                                          seed=41, timers=timers)
    t0 = world.sim.now
    world.run_for(SOAK_US)
    downs = [r for r in world.trace.select(category="mtp.neighbor", since=t0)
             if "down" in r.message]
    assert downs == [], downs[:3]
    for name, mtp in dep.mtp_nodes.items():
        assert all(nbr.up for nbr in mtp.neighbors.values()), name
        assert mtp.counters.data_dropped_no_path == 0


def test_bgp_soak_no_hold_expiries():
    timers = StackTimers(bgp=BgpTimers(jitter=0.3))
    world, topo, dep = build_and_converge(two_pod_params(), "bgp",
                                          seed=41, timers=timers)
    t0 = world.sim.now
    world.run_for(SOAK_US)
    downs = [r for r in world.trace.select(category="bgp.session", since=t0)
             if "down" in r.message]
    assert downs == [], downs[:3]
    assert dep.sessions_up()
    # no spurious routing churn either
    assert world.trace.count("bgp.update.tx", since=t0) == 0


def test_bgp_bfd_soak():
    world, topo, dep = build_and_converge(two_pod_params(), "bgp-bfd",
                                          seed=41)
    t0 = world.sim.now
    world.run_for(SOAK_US)
    bfd_downs = [r for r in world.trace.select(category="bfd.state", since=t0)
                 if "-> DOWN" in r.message]
    assert bfd_downs == [], bfd_downs[:3]
    assert dep.sessions_up()


def test_mtp_jittered_hellos_never_breach_dead_timer():
    """The BFD-style jitter only *shortens* periods, so a healthy link
    can never be falsely declared dead: max observed hello gap stays
    under the dead interval."""
    timers = StackTimers(mtp=MtpTimers(jitter=0.25))
    world, topo, dep = build_and_converge(two_pod_params(), "mtp",
                                          seed=43, timers=timers)
    from repro.net.capture import Capture
    from repro.stack.ethernet import ETHERTYPE_MTP

    link = world.find_link(topo.tors[0][0][0], topo.aggs[0][0][0])
    cap = Capture(frame_filter=lambda f: f.ethertype == ETHERTYPE_MTP)
    cap.attach((link.end_a,))
    world.run_for(10 * SECOND)
    times = [r.time for r in cap.records if r.direction.value == "tx"]
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert gaps and max(gaps) < MtpTimers().dead_us
