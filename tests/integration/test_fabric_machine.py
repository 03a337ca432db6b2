"""One fault-interleaving state machine for every registered stack.

Each example loads copies of two converged worlds, the default one and
one tapped, no-op, on every interface before deploy (a tapped direction is
never quiet, DESIGN "Steady-state frame path"); it applies every rule to both
at once: every row of the fault table (``FAULT_OPS``), one-way loss included,
captures, bursts, a live ``FluidWorkload`` with the ``InvariantMonitor``,
the probe scenario, time, a pickle round-trip, a step run in a forked
child.  After every step the two worlds, and a forked child and its
parent, agree on every metric, counter, table, protocol state, timer
deadline, event count and the trace; warm fluid resolve equals cold,
epochs conserve bytes, per-packet ECMP picks what the fluid digests
pick, BFD flyweights match their inputs, MR-MTP never loops.  Teardown
undoes each fault through its inverse row, which must restore
everything: quiet again, the fabric is ready, agrees with the oracle and
has no loop.

Tier-1 plays the named examples of ``PROGRAMS``; the random search over
the same rules runs under ``--hypothesis-profile soak``."""

from __future__ import annotations

import dataclasses
import gc
import operator
import pickle
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Optional

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (RULE_MARKER, RuleBasedStateMachine,
                                 initialize, invariant, precondition, rule,
                                 run_state_machine_as_test)

from repro.bfd.messages import BfdState
from repro.bfd.session import SLOW_TX_INTERVAL_US, BfdSession
from repro.bgp.config import BgpTimers
from repro.harness.convergence import converge_from_cold
from repro.harness.fork import OK, fork_task, wait_any
from repro.harness.failures import FAULT_OPS, FailureInjector
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

# every fault op, and a capture: the one wake that is not a fault
OPS = (*FAULT_OPS, "capture")
# ``arg`` picks profile and direction together: loss 1.0 sent one way
# (``tx``) is the paper's one-sided failure with carrier kept at both ends
PROFILES = (ImpairmentProfile(loss=0.3), ImpairmentProfile(loss=1.0),
            ImpairmentProfile(duplicate=0.5, jitter_us=40),
            ImpairmentProfile(corrupt=0.5, jitter_us=70_000))
DIRECTIONS = ("tx", "rx", "both")
# a fault's target, by the row's target kind, from the port and the
# router ``target`` indexes; and the extra arguments ``arg`` picks
TARGETS = {"interface": lambda port, router: (port.node.name, port.name),
           "link": lambda port, router: (port.node.name,
                                         port.peer().node.name),
           "node": lambda port, router: (router,)}
EXTRAS = {"agent_restart": lambda arg: ((None, False, True)[arg % 3],),
          "flap_train": lambda arg: (1 + arg, 2),
          "impair": lambda arg: (DIRECTIONS[arg % 3], PROFILES[arg % 4])}


def extras(op: str, arg: int) -> tuple:
    return EXTRAS[op](arg) if op in EXTRAS else ()

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
    # MR-MTP refuses DCell: it has no top tier (ROADMAP item 5)
    return ("clos-2", "clos-4", "vl2") + (
        ("dcell",) if stack.startswith("bgp") else ())


@contextmanager
def collector_paused():
    """Cyclic collection off, as ``build_and_converge`` turns it off, and
    left as found: every pass would walk the worlds the test process
    holds, and converging or playing makes little cyclic garbage."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@lru_cache(maxsize=None)
def _converged(stack: str, fabric: str, world_seed: int, tapped: bool) -> bytes:
    """``tapped``: from the start, so convergence is played frame by frame."""
    spec = resolve_spec(stack, BGP_TIMERS if stack.startswith("bgp") else None)
    with collector_paused():
        world = World(seed=world_seed)
        topo = build_topology(FABRICS[fabric], world=world)
        for iface in world.all_interfaces() if tapped else ():
            iface.add_tap(no_op_tap)
        deployment = get_stack(spec.name).build(topo, spec)
        deployment.start()
        converge_from_cold(world, deployment)
        return pickle.dumps((world, topo, deployment))


def disagreements(deployment, topo) -> list:
    """The rack pairs whose exact verdict (every ECMP choice delivers)
    differs from the oracle's."""
    return [pair for pair, verdict in pair_verdicts(deployment, topo).items()
            if verdict.delivers != verdict.connected]


def unrestored(world, deployment) -> list:
    """Whatever a fault left behind: a port down, a link impaired, an
    agent crashed."""
    agents = {**getattr(deployment, "mtp_nodes", {}),
              **getattr(deployment, "speakers", {})}
    return ([i.full_name for i in world.all_interfaces() if not i.admin_up]
            + [end.full_name for link in world.links
               for end in (link.end_a, link.end_b) if link.impairment(end)]
            + [name for name, agent in agents.items() if agent.crashed])


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
    faults: list = field(default_factory=list)  # (op, target) injected
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


@lru_cache(maxsize=None)
def _getter(cls):
    return operator.attrgetter(*(f.name for f in dataclasses.fields(cls)))


def astuple(record) -> tuple:
    """``dataclasses.astuple`` of a flat record (every counter class here
    is one), without its deep copy."""
    return _getter(type(record))(record)


def observe(fab: Fabric) -> dict:
    """Everything the two worlds must agree on, for either family.
    Counters are read through their public, settling accessors first;
    then every interface is tapped — which wakes whatever is still quiet
    — so that the timers compared are real in both, and untapped again,
    so that the default world goes quiet again where it may."""
    world, deployment = fab.world, fab.deployment
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
        "now": world.sim.now, "version": world.sim.forwarding_version,
        "metrics": fab.metrics,
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
                       node.table.render()) for name, node in mtp.items()},
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
        """Timed fault ops (and captures), each ``(op, (hello-aligned?,
        offset_us), target, arg)``; each fault is kept for the teardown."""
        for fab in self.fabrics:
            world, topo, injector = fab.world, fab.topo, fab.injector
            ports, routers, now = fabric_ports(topo), topo.routers(), world.sim.now
            for op, (aligned, offset), target, arg in faults:
                at = now + offset + (-now % HELLO_US if aligned else 0)
                router = routers[target % len(routers)]
                if op == "capture":  # tshark started on one router mid-run
                    fab.captures.append(Capture())
                    world.sim.schedule_at(at, fab.captures[-1].attach_node,
                                          topo.node(router))
                    continue
                args = TARGETS[FAULT_OPS[op].target](
                    ports[target % len(ports)], router)
                injector.inject(op, *args, *extras(op, arg), at=at)
                fab.faults.append((op, args))

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
        """Every scheduled fault lands; then each is undone by its
        inverse row, the last first, which leaves nothing down, impaired
        or crashed, and the control plane runs until quiet."""
        if not self.fabrics:
            return
        self.run(1500 * MILLISECOND)
        self.agree()
        for fab in self.fabrics:
            for op, args in reversed(fab.faults):
                if FAULT_OPS[op].inverse is not None:
                    fab.injector.inject(FAULT_OPS[op].inverse, *args)
            assert unrestored(fab.world, fab.deployment) == []
            converge_from_cold(fab.world, fab.deployment)
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


@dataclass(frozen=True)
class Program:
    """One example of the machine, written out: the converged world it
    loads and the ``(rule, kwargs)`` steps it applies."""

    fabric: str
    seed: int
    steps: tuple


def play(stack: str, program: Program) -> None:
    """``program`` as the machine runs an example: each rule followed by
    the invariant, then the teardown."""
    with collector_paused():
        machine = machine_for(stack)()
        machine.load(program.fabric, program.seed)
        for name, kwargs in program.steps:
            getattr(machine, name)(**kwargs)
            machine.agree()
        machine.teardown()


def _faults(*faults) -> tuple:
    return ("inject", {"faults": list(faults)})


def _run(ms: int, us: int = 0) -> tuple:
    return ("run", {"duration": ms * MILLISECOND + us})


# a crash and a restart under a live permutation load, 10 ms epochs
def _restart_under_load(fabric, router, mode) -> Program:
    return Program(fabric, 0, (
        ("start_workload", {"flows": 60, "matrix": "permutation",
                            "epoch_ms": 10}),
        _faults(("agent_crash", (False, 1 * MILLISECOND), router, 0),
                ("agent_restart", (False, 41 * MILLISECOND), router, mode)),
        _run(120)))


# Faults are ``(op, (hello-aligned?, offset_us), target, arg)`` as
# ``FabricMachine.inject`` reads them: ``op`` is a scenario op name,
# ``target`` indexes the fabric's router-to-router ports and its routers,
# ``arg`` picks the restart mode (``% 3``), the impairment profile
# (``% 4``) and direction (``% 3``) or the flap windows (``1 + arg`` us)
PROGRAMS = {
    # L-1-2:eth1 (port 2) stops sending on a hello tick under a uniform
    # load: S-1-1 hears nothing and L-1-2 still has carrier; a capture on
    # S-1-1 and a burst across the fabric watch it heal; the TC1 probe
    # runs with the invariant monitor
    "one-way-loss-under-load": Program("clos-2", 0, (
        ("start_workload", {"flows": 60}),
        _faults(("impair", (True, 0), 2, 9),
                ("capture", (False, 30 * MILLISECOND), 4, 0)),
        ("burst", {"at": (True, 6), "gap_us": 1_000, "count": 40,
                   "endpoints": 3}),
        _run(400),
        _faults(("clear_impairment", (False, 0), 2, 0)),
        ("fork_and_run", {"duration": 120 * MILLISECOND}),
        ("probe", {"case": 1, "invariants": True}),
        ("round_trip", {}))),
    # spine S-1-2 (router 9) powers off, S-2-1's agent dies as a hello
    # is delivered, the L-2-1--S-2-1 link (port 4) is cut, L-1-1:eth1
    # goes down just after that delivery, S-1-1:eth3 (to T-1)
    # duplicates and jitters both ways and top T-2 (router 17) is
    # isolated, its agent alive; all but T-2 return, S-2-1's agent by a
    # default restart, while L-3-1's agent crashes and cold-boots; then
    # TC3, unmonitored; the teardown brings T-2 back
    "routers-and-ports-fail-and-return": Program("clos-4", 1, (
        _faults(("node_crash", (False, 5 * MILLISECOND), 9, 0),
                ("agent_crash", (True, HELLO_US + 6), 10, 0),
                ("link_cut", (False, 20 * MILLISECOND), 4, 0),
                ("iface_down", (True, HELLO_US + 7), 0, 0),
                ("impair", (False, 0), 18, 2),
                ("isolate", (False, 40 * MILLISECOND), 17, 0)),
        _run(150),
        _faults(("node_restart", (False, 0), 9, 0),
                ("agent_restart", (False, 10 * MILLISECOND), 10, 0),
                ("link_restore", (False, 30 * MILLISECOND), 4, 0),
                ("iface_up", (False, 0), 0, 0),
                ("agent_crash", (False, 5 * MILLISECOND), 4, 0),
                ("agent_restart", (False, 60 * MILLISECOND), 4, 2)),
        ("probe", {"case": 3, "invariants": False}))),
    # what the random search found.  S-1-1:eth2 (port 9) down and up
    # within 3 us: S-1-1 prunes what L-1-2 gave it, and L-1-2, which
    # never missed a hello, never re-advertises; re-admitting it, S-1-1
    # re-sends the JOINs it pruned
    "parent-flap-shorter-than-dead-timer": Program("clos-2", 0, (
        _faults(("flap_train", (False, 0), 9, 0)),)),
    # S-1-1 (router 4) powers off (restarting its agent while dark is a
    # no-op); L-1-1 (router 0) is power-cycled after S-1-1's last full
    # hello.  S-1-1 accepts L-1-1 on its first hello and must answer
    # with a full hello: keepalives do not carry the tier
    "peer-accepted-on-first-sight": Program("clos-2", 0, (
        _faults(("node_crash", (False, 0), 4, 0),
                ("agent_restart", (False, 100 * MILLISECOND), 4, 1),
                ("node_crash", (False, 150 * MILLISECOND), 0, 0),
                ("node_restart", (False, 300 * MILLISECOND), 4, 0),
                ("node_restart", (False, 420 * MILLISECOND + 17), 0, 0)),)),
    # VL-1-1's agent dies (router 0): VA-1-1 prunes root 11 100 ms on,
    # while for 412 us more the spines still send its packets down to
    # it.  Sent back up they would loop between them: they are dropped
    "descending-packet-turned-back-up": Program("vl2", 0, (
        _faults(("agent_crash", (False, 1), 0, 0)),
        _run(100, 219))),
    # S-2-2:eth2 (port 29) flaps, spine S-1-2 (router 9) powers off and
    # its agent is restarted gracefully while dark, 0.5 s before the
    # teardown powers it on: the restart is a no-op and the power-on
    # cold-boots it (had it come up warm, MR-MTP would never converge)
    "agent-restart-while-powered-off": Program("clos-4", 1, (
        _faults(("flap_train", (True, 100 * MILLISECOND), 29, 178)),
        _faults(("node_crash", (True, 249_994), 9, 0)),
        _run(400),
        _faults(("agent_restart", (False, 1_000_000), 9, 1)))),
    "graceful-restart-under-load-clos": _restart_under_load("clos-2", 4, 1),
    "graceful-restart-under-load-vl2": _restart_under_load("vl2", 0, 1),
    "cold-restart-under-load-dcell": _restart_under_load("dcell", 0, 2),
}


def programs_for(stack: str) -> list[Program]:
    return [program for program in PROGRAMS.values()
            if program.fabric in fabrics_for(stack)]


def play_table(stack: str) -> None:
    for program in programs_for(stack):
        play(stack, program)


@pytest.mark.parametrize("stack", available_stacks())
def test_fabric_machine(stack):
    """Tier-1 plays the table; ``--hypothesis-profile soak`` also runs
    the random search, at 200 examples x 30 steps."""
    play_table(stack)
    if settings.get_current_profile_name() == "soak":
        run_state_machine_as_test(machine_for(stack),
                                  settings=settings.default)


def test_the_programs_cover_the_machine():
    rules = {name for name, method in vars(FabricMachine).items()
             if hasattr(method, RULE_MARKER)}
    for stack in available_stacks():
        programs = programs_for(stack)
        assert all(program.steps for program in programs), stack
        assert {program.fabric for program in programs} \
            == set(fabrics_for(stack)), stack
        steps = [step for program in programs for step in program.steps]
        assert {name for name, _ in steps} == rules, stack
        assert {kwargs["invariants"] for name, kwargs in steps
                if name == "probe"} == {False, True}, stack
        faults = [fault for name, kwargs in steps if name == "inject"
                  for fault in kwargs["faults"]]
        # every row of the fault table, isolate included, and a capture
        assert {op for op, *_ in faults} == {*FAULT_OPS, "capture"}, stack
        assert {arg % 3 for op, _, _, arg in faults
                if op == "agent_restart"} == {0, 1, 2}, stack
        assert any(op == "impair"
                   and PROFILES[arg % 4] == ImpairmentProfile(loss=1.0)
                   and DIRECTIONS[arg % 3] == "tx"
                   for op, _, _, arg in faults), stack
        assert any(aligned for _, (aligned, _), *_ in faults), stack


@pytest.mark.parametrize("stack", ("mtp", "bgp-bfd"))
@pytest.mark.parametrize("op", [op for op, row in FAULT_OPS.items()
                                if row.inverse is not None])
def test_a_fault_then_its_inverse_leaves_the_converged_world(op, stack):
    """Each fault op that has an inverse, held past the detection bound,
    then undone: once converged again nothing is left down, impaired or
    crashed, and every rack pair is judged as before the fault."""
    fab, converged = (Fabric.load(stack, "clos-2", 0, False)
                      for _ in range(2))
    row = FAULT_OPS[op]
    args = TARGETS[row.target](fabric_ports(fab.topo)[2],
                               fab.topo.routers()[4])
    # arg 100_001: a flap train's windows are 100 ms, an impairment
    # loses every frame both ways
    fab.injector.inject(op, *args, *extras(op, 100_001))
    fab.world.run_for(fab.deployment.detection_bound_us())
    fab.injector.inject(row.inverse, *args)
    converge_from_cold(fab.world, fab.deployment)
    assert unrestored(fab.world, fab.deployment) == []
    assert pair_verdicts(fab.deployment, fab.topo) \
        == pair_verdicts(converged.deployment, converged.topo)


FOUND = [("mtp", "parent-flap-shorter-than-dead-timer"),
         ("mtp", "peer-accepted-on-first-sight"),
         ("mtp", "descending-packet-turned-back-up"),
         ("mtp", "agent-restart-while-powered-off"),
         ("mtp-gr", "graceful-restart-under-load-clos"),
         ("bgp-gr", "graceful-restart-under-load-vl2"),
         ("bgp", "cold-restart-under-load-dcell")]


@pytest.mark.parametrize("stack, name", FOUND, ids=[n for _, n in FOUND])
def test_interleavings_the_machine_found(stack, name):
    play(stack, PROGRAMS[name])


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
# caught by a play of the table
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
    # converged right: a steady-state mutant
    for program in programs_for(stack):
        for tapped in (False, True):
            _converged(stack, program.fabric, program.seed, tapped)
    monkeypatch.setattr(owner, name, mutant)
    with pytest.raises(AssertionError):
        play_table(stack)
