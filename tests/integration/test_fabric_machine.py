"""One fault-interleaving state machine for every registered stack.

Each example loads copies of two converged worlds, the default one and
one tapped, no-op, on every interface before deploy (a tapped direction is
never quiet, DESIGN "Steady-state frame path"); it applies every rule to both
at once: the ``FailureInjector`` vocabulary, one-way loss included,
captures, bursts, a live ``FluidWorkload`` with the ``InvariantMonitor``,
the probe scenario, time, a pickle round-trip, a step run in a forked
child.  After every step the two worlds, and a forked child and its
parent, agree on every metric, counter, table, protocol state, timer
deadline, event count and the trace; warm fluid resolve equals cold,
epochs conserve bytes, per-packet ECMP picks what the fluid digests
pick, BFD flyweights match their inputs, MR-MTP never loops.  Teardown
restores everything: quiet again, the fabric is ready, agrees with the
oracle and has no loop."""

from __future__ import annotations

import dataclasses
import itertools
import pickle
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Optional

import numpy as np
import pytest
from hypothesis import Phase, seed, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule,
                                 run_state_machine_as_test)

from repro.bfd.messages import BfdState
from repro.bfd.session import SLOW_TX_INTERVAL_US, BfdSession
from repro.bgp.config import BgpTimers
from repro.harness.convergence import converge_from_cold
from repro.harness.fork import OK, fork_task, wait_any
from repro.harness.failures import FailureInjector
from repro.harness.oracle import pair_verdicts
from repro.net.capture import Capture
from repro.net.impairment import ImpairmentProfile
from repro.net.world import World
from repro.resilience.invariants import LOOP, InvariantMonitor
from repro.routing import ecmp
from repro.scenario.compiler import compile_scenario
from repro.scenario.model import Scenario, ScenarioEvent
from repro.sim.units import MILLISECOND
from repro.stacks import StackTimers, available_stacks, get_stack, resolve_spec
from repro.topology import ClosParams, build_topology
from repro.traffic.generator import ReceiverAnalyzer, TrafficSender
from repro.workload.engine import FluidWorkload
from repro.workload.spec import WorkloadSpec

FABRICS = {"clos-2": ClosParams(num_pods=2), "clos-4": ClosParams(num_pods=4),
           "vl2": "vl2", "dcell": "dcell"}
SEEDS = (0, 1, 2)
HELLO_US = 50 * MILLISECOND
# BGP keepalive and hold 5x faster than the paper's 1 s / 3 s: five times
# the keepalives per simulated second, and a scenario waits out a 600 ms
# hold bound instead of 3 s
BGP_TIMERS = StackTimers(bgp=BgpTimers(keepalive_us=200 * MILLISECOND,
                                       hold_us=600 * MILLISECOND))
PROBE_PORT = 7700  # the first burst's; the probe scenario's own uses 7777

# the injector's calls, by what they target
PORT_OPS = {"iface_down": "fail_interface", "iface_up": "restore_interface",
            "clear": "clear_impairment"}
LINK_OPS = {"link_cut": "cut_link", "link_restore": "restore_link"}
ROUTER_OPS = {"node_down": "fail_node", "node_up": "restore_node",
              "agent_crash": "crash_agent"}
OPS = (*PORT_OPS, *LINK_OPS, *ROUTER_OPS, "agent_restart", "impair", "flap",
       "capture")
# ``arg`` picks profile and direction together: loss 1.0 sent one way
# (``tx``) is the paper's one-sided failure with carrier kept at both ends
PROFILES = (ImpairmentProfile(loss=0.3), ImpairmentProfile(loss=1.0),
            ImpairmentProfile(duplicate=0.5, jitter_us=40),
            ImpairmentProfile(corrupt=0.5, jitter_us=70_000))
DIRECTIONS = ("tx", "rx", "both")

# any microsecond from now — or one a quiet link has an event of its own
# on: hellos tick on multiples of 50 ms, arrive 6 us later, and a packet
# a server sends 6 us before a hello is forwarded right on it
INSTANT = st.one_of(
    st.tuples(st.just(False), st.integers(0, 400_000)),
    st.tuples(st.just(True), st.builds(
        lambda k, d: k * HELLO_US + d, st.integers(0, 7),
        st.sampled_from((0, 1, 6, 7, HELLO_US - 6)))))
FAULT = st.tuples(st.sampled_from(OPS), INSTANT, st.integers(0, 10_000),
                  st.integers(0, 120_000))
DURATION = st.one_of(
    st.sampled_from((1, 6, 30, 120, 400)).map(lambda ms: ms * MILLISECOND),
    st.integers(0, 400_000))


def no_op_tap(iface, frame, direction) -> None:
    """The reference world's tap (top level: worlds are pickled)."""


def fabrics_for(stack: str) -> tuple[str, ...]:
    # MR-MTP on DCell converges vacuously (ROADMAP item 5)
    return ("clos-2", "clos-4", "vl2") + (
        ("dcell",) if stack.startswith("bgp") else ())


@lru_cache(maxsize=None)
def _converged(stack: str, fabric: str, world_seed: int, tapped: bool) -> bytes:
    """``tapped``: from the start, so convergence is played frame by frame."""
    spec = resolve_spec(stack, BGP_TIMERS if stack.startswith("bgp") else None)
    world = World(seed=world_seed)
    topo = build_topology(FABRICS[fabric], world=world)
    for iface in world.all_interfaces() if tapped else ():
        iface.add_tap(no_op_tap)
    deployment = get_stack(spec.name).build(topo, spec)
    deployment.start()
    converge_from_cold(world, deployment, deployment.ready)
    return pickle.dumps((world, topo, deployment))


def disagreements(deployment, topo) -> list:
    """The rack pairs whose exact verdict (every ECMP choice delivers)
    differs from the oracle's."""
    return [pair for pair, verdict in pair_verdicts(deployment, topo).items()
            if verdict.delivers != verdict.connected]


@lru_cache(maxsize=None)
def _oracle_verdicts(stack: str, fabric: str, world_seed: int) -> list:
    """The converged world's disagreements with the oracle, to which a
    torn-down one must return: none, but on DCell, where BGP delivers
    over paths that are not valley-free (ROADMAP item 5)."""
    fab = Fabric.load(stack, fabric, world_seed, False)
    verdicts = disagreements(fab.deployment, fab.topo)
    assert fabric == "dcell" or verdicts == []
    return verdicts


@dataclass
class Fabric:
    """One world and all the machine attached to it, pickled as one."""

    world: World
    topo: Any
    deployment: Any
    injector: FailureInjector
    monitor: InvariantMonitor
    captures: list = field(default_factory=list)
    bursts: list = field(default_factory=list)
    metrics: list = field(default_factory=list)
    workload: Optional[FluidWorkload] = None
    traced: int = 0  # trace records already compared

    @classmethod
    def load(cls, *key) -> "Fabric":  # a fresh copy of ``_converged(*key)``
        world, topo, deployment = pickle.loads(_converged(*key))
        return cls(world, topo, deployment, FailureInjector(world, deployment),
                   InvariantMonitor(topo, deployment))


def fabric_ports(topo) -> list:
    return [iface for name in topo.routers()
            for iface in topo.node(name).interfaces.values()
            if iface.peer() is not None and iface.peer().node.tier > 0]


def _ip_stacks(deployment) -> dict:
    stacks = dict(getattr(deployment, "stacks", None)
                  or deployment.tor_stacks)
    stacks.update((name, host.stack)
                  for name, host in deployment.servers.items())
    return stacks


def _due(timer):
    return timer.expires_at


def observe(fab: Fabric) -> dict:
    """Everything the two worlds must agree on, for either family.
    Counters are read through their public, settling accessors first;
    then every interface is tapped — which wakes whatever is still quiet
    — so that the timers compared are real in both, and untapped again,
    so that the default world goes quiet again where it may."""
    world, deployment, astuple = fab.world, fab.deployment, dataclasses.astuple
    mtp = getattr(deployment, "mtp_nodes", {})
    speakers = getattr(deployment, "speakers", {})
    sessions = {(name, str(ip)): b for name, s in speakers.items()
                if s.bfd is not None for ip, b in s.bfd.sessions.items()}
    peers = {(name, str(ip)): p for name, s in speakers.items()
             for ip, p in s.peers.items()}
    conns = {key: p.conn for key, p in peers.items() if p.conn is not None}
    records, fab.traced = world.trace.records[fab.traced:], \
        len(world.trace.records)
    seen = {
        "now": world.sim.now, "metrics": fab.metrics,
        "bursts": [dataclasses.asdict(a.report(s)) for s, a in fab.bursts],
        "epochs": fab.workload and list(map(astuple,
                                            fab.workload.epoch_records)),
        "trace": [(r.time, r.node, r.category, r.message, sorted(r.data.items()))
                  for r in records if r.category != "mtp.keepalive.tx"],
        # frames that reach one node in the same microsecond on different
        # ports are listed in port order: a frame put back in flight and
        # a played one may be delivered in either order (DESIGN)
        "captures": [sorted((r.time, r.node, r.interface, r.direction.value,
                             type(r.frame.payload).__name__)
                            for r in c.records) for c in fab.captures],
        "links": [(link.frames_carried, link.bytes_carried,
                   link.frames_dropped_queue, link.frames_lost_impaired,
                   link.frames_corrupted, link.frames_duplicated,
                   link.queue_backlog_bytes(link.end_a),
                   link.queue_backlog_bytes(link.end_b)) for link in world.links],
        "ifaces": {i.full_name: (i.admin_up, astuple(i.counters))
                   for i in world.all_interfaces()},
        "ip": {name: (astuple(stack.counters), stack.table.render())
               for name, stack in _ip_stacks(deployment).items()},
        "mtp": {name: (astuple(node.counters), node.crashed,
                       node.table.render(), node.fib_gen)
                for name, node in mtp.items()},
        "bgp": {name: (s.crashed, s.summary(), sorted(
                    (str(ip), p.state.value, p.sessions_established)
                    for ip, p in s.peers.items())) for name, s in speakers.items()},
        "bfd": {key: (b.state.value, b.your_discriminator, b.packets_sent,
                      b.packets_received) for key, b in sessions.items()},
        "jitter": {name: s.bfd.rng.bit_generator.state
                   for name, s in speakers.items() if s.bfd is not None},
        "tcp": {key: (c.state.value, c.snd_nxt, c.snd_una, c.rcv_nxt,
                      c.segments_sent, c.segments_retransmitted,
                      c.bytes_delivered) for key, c in conns.items()},
    }
    for iface in world.all_interfaces():
        iface.add_tap(no_op_tap)
    seen["events"] = world.sim.events_processed + world.sim.events_settled
    seen["link_free_at"] = [sorted((i.full_name, t)
                                   for i, t in link._next_free.items())
                            for link in world.links]
    seen["neighbors"] = {
        (name, port): (nbr.state.value, nbr.tier, nbr.peer_gen,
                       nbr.stale_held, nbr.times_died, nbr._consecutive,
                       nbr._last_rx, nbr._dead_timer.expires_at,
                       node._last_tx.get(port), _due(node._hello_timers[port]))
        for name, node in mtp.items() for port, nbr in node.neighbors.items()}
    seen["retransmit"] = {name: _due(node._retx_timer)
                          for name, node in mtp.items()}
    seen["timers"] = (
        {key: (_due(b._tx_timer), _due(b._detect_timer))
         for key, b in sessions.items()},
        {key: (_due(p.hold_timer), _due(p.keepalive_timer),
               _due(p.retry_timer)) for key, p in peers.items()},
        {key: (_due(c._rto_timer), c._rto, len(c._unacked))
         for key, c in conns.items()})
    for iface in world.all_interfaces():
        iface.remove_tap(no_op_tap)
    return seen


def captured(engine: FluidWorkload):
    """A capture as comparable arrays.  Link ids are handed out in
    discovery order, which differs between a warm and a cold engine, so
    links are compared by name."""
    problem = engine.problem
    names = np.array([engine.link_name(i)
                      for i in range(len(problem.capacity))])
    return (names[problem.flow_links], problem.flow_ptr,
            engine._blackholed_now, engine._surv)


class FabricMachine(RuleBasedStateMachine):
    """Two worlds (default and all-tapped) of one stack, driven alike."""

    stack = "mtp"

    def __init__(self) -> None:
        super().__init__()
        self.fabrics: list[Fabric] = []
        self.probed = False

    def load(self, fabric: str, world_seed: int) -> None:
        self.fabric, self.seed = fabric, world_seed
        self.fabrics = [Fabric.load(self.stack, fabric, world_seed, tapped)
                        for tapped in (False, True)]

    @initialize(data=st.data())
    def start(self, data) -> None:
        self.load(data.draw(st.sampled_from(fabrics_for(self.stack))),
                  data.draw(st.sampled_from(SEEDS)))

    @rule(faults=st.lists(FAULT, min_size=1, max_size=3))
    def inject(self, faults) -> None:
        """Timed injector calls (and captures: the one wake that is not a
        fault), each ``(op, (hello-aligned?, offset_us), target, arg)``."""
        for fab in self.fabrics:
            world, topo, injector = fab.world, fab.topo, fab.injector
            ports, routers, now = fabric_ports(topo), topo.routers(), world.sim.now
            for op, (aligned, offset), target, arg in faults:
                at = now + offset + (-now % HELLO_US if aligned else 0)
                port = ports[target % len(ports)]
                node, name = port.node.name, port.name
                router = routers[target % len(routers)]
                if op in PORT_OPS:
                    getattr(injector, PORT_OPS[op])(node, name, at=at)
                elif op in LINK_OPS:
                    getattr(injector, LINK_OPS[op])(node, port.peer().node.name,
                                                    at=at)
                elif op in ROUTER_OPS:
                    getattr(injector, ROUTER_OPS[op])(router, at=at)
                elif op == "agent_restart":  # default, graceful or cold
                    injector.restart_agent(router, at=at,
                                           cold=(None, False, True)[arg % 3])
                elif op == "impair":
                    injector.impair_link(node, name, PROFILES[arg % 4],
                                         DIRECTIONS[arg % 3], at=at)
                elif op == "flap":
                    injector.flap_interface(node, name, period_us=1 + arg,
                                            count=2, start_at=at)
                else:  # capture: tshark started on one router mid-run
                    fab.captures.append(Capture())
                    world.sim.schedule_at(at, fab.captures[-1].attach_node,
                                          topo.node(router))

    @rule(at=INSTANT, gap_us=st.sampled_from((1, 37, 1_000, 12_500)),
          count=st.integers(1, 60), endpoints=st.integers(0, 1_000))
    def burst(self, at, gap_us, count, endpoints) -> None:
        for fab in self.fabrics:
            hosts, port = fab.deployment.servers, PROBE_PORT + len(fab.bursts)
            servers = sorted(hosts)
            n = len(servers)
            src = servers[endpoints % n]
            dst = servers[(endpoints + 1 + endpoints // n % (n - 1)) % n]
            sender = TrafficSender(
                udp=hosts[src].udp, dst=fab.topo.server_address(dst),
                dst_port=port, src_port=41000, gap_us=gap_us)
            now = fab.world.sim.now
            sender.start(count=count,
                         at=now + at[1] + (-now % HELLO_US if at[0] else 0))
            fab.bursts.append((sender, ReceiverAnalyzer(hosts[dst].udp,
                                                        port=port)))

    @precondition(lambda self: self.fabrics[0].workload is None)
    @rule(flows=st.integers(30, 600))
    def start_workload(self, flows, matrix="uniform", epoch_ms=25) -> None:
        spec = WorkloadSpec(name="machine", matrix=matrix, flows=flows,
                            duration_ms=2000, epoch_ms=epoch_ms)
        for fab in self.fabrics:
            fab.workload = FluidWorkload(spec, fab.topo, fab.deployment,
                                         monitor=fab.monitor)
            fab.workload.start()

    @precondition(lambda self: not self.probed)
    @rule(case=st.integers(1, 4), invariants=st.booleans())
    def probe(self, case, invariants) -> None:
        """A burst across the fabric and one of the paper's cases, down
        and up, as a compiled, measured scenario."""
        self.probed = True
        target = f"case:TC{case}"
        scenario = Scenario(
            name="probe", settle="keepalive-phase", quiet_ms=150,
            max_wait_ms=1000, events=(
                ScenarioEvent(op="traffic_burst", at_ms=0,
                              src="server:tor[0]", dst="server:tor[1]",
                              rate_pps=500, count=80),
                ScenarioEvent(op="iface_down", at_ms=20, target=target),
                ScenarioEvent(op="iface_up", at_ms=200, target=target)))
        for fab in self.fabrics:
            metrics = compile_scenario(
                scenario, fab.world, fab.topo, fab.deployment,
                invariants=invariants).execute(self.stack, self.seed)
            fab.metrics.append(dataclasses.asdict(metrics))

    @rule(duration=DURATION)
    def run(self, duration) -> None:
        for fab in self.fabrics:
            fab.world.run_for(duration)

    @rule()
    def round_trip(self) -> None:
        """Picklability is a stack contract: a world is restored by it."""
        self.fabrics = pickle.loads(pickle.dumps(self.fabrics))

    @rule(duration=DURATION)
    def fork_and_run(self, duration) -> None:
        self.fork(lambda: self.run(duration))

    def fork(self, step) -> None:
        """``step`` in a forked child (as a task forked off a converged
        world runs) and here: the child must see what this process sees."""
        def in_child():
            step()
            return [observe(fab) for fab in self.fabrics]

        children: dict = {}
        fork_task(children, in_child, ())
        while children:
            ended = wait_any(children, None)
        tag, child, *_ = pickle.loads(ended[0].blob)
        assert tag == OK, child
        step()
        here = [observe(fab) for fab in self.fabrics]
        assert child == here
        self.compare(here)

    @staticmethod
    def compare(seen: list[dict]) -> None:
        quiet, tapped = seen
        assert quiet == tapped, [key for key in tapped if quiet[key] != tapped[key]]

    @invariant()
    def agree(self) -> None:
        self.compare([observe(fab) for fab in self.fabrics])
        fab = self.fabrics[0]
        for node in fab.world.nodes.values():
            for session in getattr(getattr(node, "bfd", None), "sessions",
                                   {}).values():
                if session._tx_packet is not None:  # built from its inputs
                    control = session._tx_packet.payload.payload
                    assert session._tx_inputs == (
                        control.state, control.your_discriminator,
                        control.desired_min_tx_us), session
        if hasattr(fab.deployment, "mtp_nodes"):
            fab.monitor.check()
            assert not [key for key in fab.monitor._open if key[0] == LOOP]
        if fab.workload is not None:
            self._check_workload(fab)

    def _check_workload(self, fab: Fabric) -> None:
        for other in self.fabrics:
            other.workload.mark_epoch()
        warm = fab.workload
        cold = FluidWorkload(warm.spec, fab.topo, fab.deployment,
                             flows=warm.flows)
        cold._resolve()
        for got, want in zip(captured(warm), captured(cold)):
            np.testing.assert_array_equal(got, want)
        for record in warm.epoch_records:
            assert record.conservation_error() < 1e-6, record
        # the per-packet hash picks what the fluid engine's digests pick
        mtp = getattr(fab.deployment, "mtp_nodes", None)
        salts = ([node.salt for node in mtp.values()] if mtp else
                 [s.table.salt for s in _ip_stacks(fab.deployment).values()])
        for row in range(min(8, len(warm.flows))):
            key = ecmp.FlowKey(*struct.unpack_from(
                "<QQHHH", warm._packed_keys, row * ecmp.KEY_BYTES))
            for salt in salts:
                digest = ecmp.ecmp_digests(warm._packed_keys, np.array([row]),
                                           salt)[0]
                assert ecmp.ecmp_hash(key, 1 << 31, salt) \
                    == int(digest) % (1 << 31), (salt, key)

    def teardown(self) -> None:
        """Every scheduled fault lands; then everything is restored and
        the control plane runs until quiet."""
        if not self.fabrics:
            return
        self.run(1500 * MILLISECOND)
        self.agree()
        for fab in self.fabrics:
            injector = fab.injector
            for node in sorted(injector._down_nodes):
                injector.restore_node(node)
            for node in sorted(injector._crashed_agents):
                injector.restart_agent(node)
            for link in fab.world.links:
                for end in (link.end_a, link.end_b):
                    if link.impairment(end) is not None:
                        injector.clear_impairment(end.node.name, end.name)
            for iface in fab.world.all_interfaces():
                if not iface.admin_up:
                    injector.restore_interface(iface.node.name, iface.name)
            converge_from_cold(fab.world, fab.deployment, fab.deployment.ready)
        self.agree()
        fab = self.fabrics[0]
        assert disagreements(fab.deployment, fab.topo) \
            == _oracle_verdicts(self.stack, self.fabric, self.seed)
        # quiet again, no stack loops; MR-MTP never looped at any check
        # (every step and every workload epoch): BGP may, on its way
        fab.monitor.check()
        assert not [key for key in fab.monitor._open if key[0] == LOOP]
        fab.monitor.finalize()
        assert fab.monitor.loops == 0 or not hasattr(fab.deployment,
                                                     "mtp_nodes")
        if fab.workload is not None:
            report = fab.workload.finish()
            assert report.max_conservation_error < 1e-6
            assert report.offered_bytes == pytest.approx(
                report.delivered_bytes + report.dropped_bytes
                + report.blackholed_bytes, abs=3)


def machine_for(stack: str) -> type[FabricMachine]:
    return type(f"FabricMachine[{stack}]", (FabricMachine,), {"stack": stack})


def run_machine(stack: str, at_seed: Optional[int] = None,
                examples: Optional[int] = None) -> None:
    """At the loaded profile's size (``tier1`` 10 x 15, ``soak`` 200 x 30);
    ``at_seed``: a mutant's run, where the first failure will do."""
    factory, chosen = machine_for(stack), settings.default
    if at_seed is not None:
        factory = seed(at_seed)(factory)
        chosen = settings(chosen, max_examples=examples,
                          phases=[Phase.generate])
    run_state_machine_as_test(factory, settings=chosen)


@pytest.mark.parametrize("stack", available_stacks())
def test_fabric_machine(stack):
    run_machine(stack)


# a crash and a restart under a live permutation load, 10 ms epochs, per
# family (graceful MR-MTP on Clos, graceful BGP on VL2, cold BGP on
# DCell): no tier-1 example of the machine draws a workload, then a crash
def _restart_under_load(router, mode):
    return [("agent_crash", (False, 1 * MILLISECOND), router, 0),
            ("agent_restart", (False, 41 * MILLISECOND), router, mode)]


@pytest.mark.parametrize("stack, fabric, flows, faults, check_at_us", [
    # S-1-1:eth2 (port 9) down and up within 3 us: S-1-1 prunes what
    # L-1-2 gave it, and L-1-2, which never missed a hello, never
    # re-advertises; re-admitting it, S-1-1 re-sends the JOINs it pruned
    ("mtp", "clos-2", 0, [("flap", (False, 0), 9, 0)], 0),
    # S-1-1 (router 4) restarts its agent while down, so its neighbours
    # keep their tiers; L-1-1 (router 0) cold-boots after S-1-1's last
    # full hello.  S-1-1 accepts L-1-1 on its first hello and must answer
    # with a full hello: keepalives do not carry the tier
    ("mtp", "clos-2", 0, [("node_down", (False, 0), 4, 0),
                          ("agent_restart", (False, 100 * MILLISECOND), 4, 1),
                          ("node_down", (False, 150 * MILLISECOND), 0, 0),
                          ("node_up", (False, 300 * MILLISECOND), 4, 0),
                          ("node_up", (False, 420 * MILLISECOND + 17), 0, 0)],
     0),
    # VL-1-1's agent dies (router 0): VA-1-1 prunes root 11 100 ms on,
    # while for 412 us more the spines still send its packets down to
    # it.  Sent back up they would loop between them: they are dropped
    ("mtp", "vl2", 0, [("agent_crash", (False, 1), 0, 0)],
     100 * MILLISECOND + 219),
    ("mtp-gr", "clos-2", 60, _restart_under_load(4, 1), 120 * MILLISECOND),
    ("bgp-gr", "vl2", 60, _restart_under_load(0, 1), 120 * MILLISECOND),
    ("bgp", "dcell", 60, _restart_under_load(0, 2), 120 * MILLISECOND),
], ids=["parent-flap-shorter-than-dead-timer", "peer-accepted-on-first-sight",
        "descending-packet-turned-back-up", "graceful-restart-under-load-clos",
        "graceful-restart-under-load-vl2", "cold-restart-under-load-dcell"])
def test_interleavings_the_machine_found(stack, fabric, flows, faults,
                                         check_at_us):
    machine = machine_for(stack)()
    machine.load(fabric, 0)
    if flows:
        machine.start_workload(flows, matrix="permutation", epoch_ms=10)
    machine.inject(faults)
    machine.run(check_at_us)
    machine.agree()
    machine.teardown()


def test_snapshot_taken_with_flyweights_populated_runs_like_a_cold_one():
    """Worlds are shared as convergence left them, when every Up BFD
    session holds its transmit flyweight and every MR-MTP port its
    keepalive frame.  The converged world carries them (checked, not
    assumed), and a forked copy must run exactly like the world it was
    forked from — including tc1's detection, which changes what the
    flyweight was built from."""
    for stack in ("bgp-bfd", "mtp"):
        machine = machine_for(stack)()
        machine.load("clos-2", 11)
        nodes = list(machine.fabrics[0].world.nodes.values())
        if stack == "mtp":
            agents = [n.mtp for n in nodes if hasattr(n, "mtp")]
            assert agents and all(
                set(m._keepalive_frames) == set(m.neighbors) for m in agents)
        else:
            sessions = [s for n in nodes if hasattr(n, "bfd")
                        for s in n.bfd.sessions.values()]
            assert sessions and all(
                s._tx_inputs == (BfdState.UP, s.your_discriminator,
                                 s.timers.tx_interval_us)
                and s._tx_packet.payload.payload.state is BfdState.UP
                for s in sessions)
        machine.fork(lambda: machine.probe(case=1, invariants=False))
        machine.agree()


# ----------------------------------------------------------------------
# the machine has teeth for the caches too: a memo answering for the
# wrong salt, a stale BFD flyweight, a rack-pair walk kept across a table
# change, a re-walk over its flows' old hop cells and dead marks — each
# caught within a fixed, seeded run
# ----------------------------------------------------------------------
_digest, _transmit, _walk = (ecmp._digest, BfdSession._transmit,
                             FluidWorkload._walk)


def _memo_for_any_salt():
    first: dict = {}
    return lambda key, salt: first.setdefault(key, _digest(key, salt))


def _transmit_without_the_inputs_check(self):
    if self._tx_packet is not None:
        self._tx_inputs = (self.state, self.your_discriminator,
                           self.timers.tx_interval_us
                           if self.state is BfdState.UP else SLOW_TX_INTERVAL_US)
    _transmit(self)


# the BFD tx timer holds the bound method, which pickles by this name
_transmit_without_the_inputs_check.__name__ = "_transmit"


def _walk_once(self, groups, memo):
    fresh = [group for group in groups if not group.reads]
    if fresh:
        _walk(self, fresh, memo)


def _wipe_nothing(self, flows):
    pass


@pytest.mark.parametrize("stack, owner, name, mutant", [
    ("mtp", ecmp, "_digest", _memo_for_any_salt()),
    ("bgp-bfd", BfdSession, "_transmit", _transmit_without_the_inputs_check),
    ("mtp", FluidWorkload, "_walk", _walk_once),
    ("mtp", FluidWorkload, "_wipe", _wipe_nothing),
], ids=["ecmp-memo", "bfd-flyweight", "fluid-walk", "fluid-wipe"])
def test_the_machine_catches_a_stale_cache(monkeypatch, stack, owner, name,
                                           mutant):
    for key in itertools.product(fabrics_for(stack), SEEDS, (False, True)):
        _converged(stack, *key)  # converged right: a steady-state mutant
    monkeypatch.setattr(owner, name, mutant)
    with pytest.raises(AssertionError):
        run_machine(stack, at_seed=1, examples=10)
