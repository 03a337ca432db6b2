"""Property: paths kept as per-depth hop columns assemble to exactly the
CSR the per-group segment lists gave.

``FluidWorkload._walk`` walks every stale rack pair breadth-first, writes
the link a flow crosses at walk depth *d* into one persistent
``[n_flows]`` column per depth and dead ends into a persistent mask, and
``_assemble_paths`` reads the CSR off those columns row by row.  Before,
a depth-first walk per group left ``(link, depth, flows)`` segments and
dead-flow lists on its group and assembly scattered them into slots; a
re-walk replaced its group's lists wholesale, so nothing of the previous
walk could survive.  The columns have no such luck — a walk has to wipe
its groups' flows first — which is what the re-walk rounds here are
for.  The old walk (hashing every branch point afresh, no cache) and the
old assembly are kept below as the oracle, and the engine's walk is held
to them with its digest batches hashed in one process and split with a
forked helper alike."""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.harness.experiments import build_and_converge
from repro.harness.failures import FailureInjector
from repro.routing.ecmp import ecmp_digests
from repro.sim.units import MILLISECOND
from repro.topology.clos import ClosParams
from repro.workload import engine as engine_module
from repro.workload.engine import MAX_FLUID_HOPS, FluidWorkload
from repro.workload.spec import WorkloadSpec
from repro.workload.synth import synthesize

SPEC = WorkloadSpec(name="hop-columns", matrix="uniform", flows=90,
                    duration_ms=100)
BENCH_INPUTS = Path(__file__).resolve().parents[2] / "bench" / "inputs"
TRANSIT = ("a", "b", "c")     # made-up nodes between the real ToRs
PORTS = ("p0", "p1")
N_LINKS = 14                  # 8 access links (4 hosts), 6 more for hops


@pytest.fixture(scope="module")
def fabric():
    world, topo, deployment = build_and_converge(
        ClosParams(num_pods=2), "mtp", seed=0)
    flows = synthesize(SPEC, topo.rack_endpoints(), world.rng)
    # synthesis never keeps a flow inside its rack; the engine must
    # still carry one (no group, no walk, two access links)
    dst = flows.dst.copy()
    dst[::9] = flows.src[::9]
    return topo, deployment, dataclasses.replace(flows, dst=dst)


def engine_over(fabric, state) -> FluidWorkload:
    """A fresh engine whose candidate sets come from ``state``, a
    ``(node, dst_tor, ingress) -> entry`` mapping, instead of the
    deployment."""
    topo, deployment, flows = fabric
    engine = FluidWorkload(SPEC, topo, deployment, flows=flows)
    assert len(engine._capacity) == 8
    engine._capacity.extend([1e9] * (N_LINKS - 8))
    read_from(engine, state)
    return engine


def read_from(engine, state) -> None:
    engine._candidate_entry = lambda memo, key: state[key]


def split_every_batch(patch, width: int) -> None:
    """Every digest batch, however small, is split ``width`` ways."""
    patch.setattr(engine_module, "SPLIT_MIN_ROWS", 0)
    patch.setattr(engine_module, "spare_width", lambda: width)


def forks_seen(patch) -> list:
    """Pids of the helpers forked from now on (``None``: a fork was
    refused)."""
    pids: list = []
    real = engine_module.fork_task

    def fork_task(children, *args, **fields):
        before = set(children)
        try:
            real(children, *args, **fields)
        except engine_module.NoFork:
            pids.append(None)
            raise
        pids.extend(children[fd].pid for fd in set(children) - before)

    patch.setattr(engine_module, "fork_task", fork_task)
    return pids


# ----------------------------------------------------------------------
# The walk and the assembly as they were while a group kept its own
# segments and dead flows, depth-first, verbatim but for where the lists
# live and for hashing each branch point's flows without a cache.
# ----------------------------------------------------------------------
@dataclass
class ReferenceWalk:
    # (link id, walk depth it was crossed at, flows that crossed it)
    segments: list = field(default_factory=list)
    dead: list = field(default_factory=list)      # dead-ended flows
    reads: dict = field(default_factory=dict)     # key -> entry, as met


def reference_walk(engine, group, memo) -> ReferenceWalk:
    walk = ReferenceWalk()
    dst_tor = group.dst_tor
    stack = [(group.src_tor, None, 0, group.flows)]
    while stack:
        node, ingress, depth, idx = stack.pop()
        if node == dst_tor:
            continue
        if depth >= MAX_FLUID_HOPS:
            walk.dead.append(idx)  # routing loop
            continue
        key = (node, dst_tor, ingress)
        entry = walk.reads[key] = engine._candidate_entry(memo, key)
        salt, spray, entries = entry
        if not entries:
            walk.dead.append(idx)  # no candidate port at all
            continue
        if len(entries) == 1:
            parts = [idx]
        else:
            if spray:
                choice = idx % len(entries)
            else:
                choice = (ecmp_digests(engine._packed_keys, idx, salt)
                          % np.uint64(len(entries)))
            parts = [idx[choice == c] for c in range(len(entries))]
        for (link, peer_node, peer_iface), part in zip(entries, parts):
            if len(part) == 0:
                continue
            if link is not None:
                walk.segments.append((link, depth, part))
            if peer_node is None:
                walk.dead.append(part)
            else:
                stack.append((peer_node, peer_iface, depth + 1, part))
    return walk


def reference_assemble_paths(engine, walks):
    n = len(engine.flows)
    blackholed = np.zeros(n, dtype=bool)
    for walk in walks:
        for part in walk.dead:
            blackholed[part] = True
    routed = np.flatnonzero(~blackholed)

    segments = [seg for walk in walks for seg in walk.segments]
    lens = np.asarray([len(part) for _, _, part in segments],
                      dtype=np.int64)
    hop_flow = np.concatenate(
        [np.empty(0, dtype=np.int32)] + [part for _, _, part in segments])

    counts = np.bincount(hop_flow, minlength=n) + 1
    counts[routed] += 1
    flow_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=flow_ptr[1:])
    flow_links = np.empty(flow_ptr[-1], dtype=np.int64)
    flow_links[flow_ptr[:-1]] = engine._src_access
    hop_slot = flow_ptr[hop_flow]
    hop_slot += np.repeat(np.asarray(
        [depth + 1 for _, depth, _ in segments], dtype=np.int64), lens)
    flow_links[hop_slot] = np.repeat(np.asarray(
        [link for link, _, _ in segments], dtype=np.int64), lens)
    flow_links[flow_ptr[1:][routed] - 1] = engine._dst_access[routed]
    return flow_links, flow_ptr, blackholed


def assert_same_capture(engine, walks) -> None:
    flow_links, flow_ptr, blackholed = reference_assemble_paths(
        engine, walks)
    engine._assemble_paths()
    assert engine.problem.flow_links.dtype == flow_links.dtype
    assert np.array_equal(engine.problem.flow_links, flow_links)
    assert np.array_equal(engine.problem.flow_ptr, flow_ptr)
    assert np.array_equal(engine._blackholed_now, blackholed)


# ----------------------------------------------------------------------
# drawn forwarding states
# ----------------------------------------------------------------------
LINK = st.integers(0, N_LINKS - 1)


def entries(dst_tor: str, direct: bool):
    """One candidate entry.  Every way a candidate can end a flow is in
    the mix: no candidate at all, an egress that is down (the frame
    never leaves: no link), a far MAC that is down (the link is crossed,
    then the flow dies).  Unless ``direct``, next hops come from a small
    pool, so walks branch, reconverge and loop."""
    peer = st.just(dst_tor) if direct else st.sampled_from(
        TRANSIT + (dst_tor, dst_tor))
    forward = st.tuples(LINK, peer, st.sampled_from(PORTS))
    candidate = st.one_of(
        forward, forward, forward, forward,
        st.just((None, None, None)),
        st.tuples(LINK, st.none(), st.none()))
    return st.tuples(
        st.integers(1, 4), st.booleans(),
        st.lists(candidate, max_size=3).map(tuple))


class DrawnState(dict):
    """A forwarding state drawn entry by entry as the walks ask."""

    def __init__(self, data, direct: bool) -> None:
        super().__init__()
        self.data, self.direct = data, direct

    def __missing__(self, key):
        _node, dst_tor, _ingress = key
        self[key] = self.data.draw(entries(dst_tor, self.direct))
        return self[key]


def branching(groups, straight=()) -> dict:
    """A fixed state: source ToRs hash four ways (``a``, ``b``, a far MAC
    down, an egress down), ``a`` hashes on to the destination or ``b``,
    ``b`` sprays, or sends back to ``a``: a loop to ``MAX_FLUID_HOPS``.
    The ToRs of ``straight`` send straight to the destination."""
    state = {}
    for g in groups:
        dst = g.dst_tor
        fanout = ((7, dst, "p0"),) if g in straight else (
            (0, "a", "p0"), (1, "b", "p1"), (2, None, None), (None, None, None))
        state[(g.src_tor, dst, None)] = (1, False, fanout)
        for port in PORTS:
            state[("a", dst, port)] = (2, False, ((3, dst, "p0"),
                                                  (4, "b", "p0")))
        state[("b", dst, "p1")] = (3, True, ((5, dst, "p1"), (6, "a", "p1")))
        state[("b", dst, "p0")] = (3, False, ((6, "a", "p1"),))
    return state


@example(data=None)
@given(data=st.data())
def test_hop_columns_assemble_to_the_segment_scatter(fabric, data):
    """Over drawn candidate trees — spray and hashed branch points,
    every dead-end kind, loops to ``MAX_FLUID_HOPS``, intra-rack flows —
    and over rounds in which a drawn subset of the rack pairs is walked
    again through a new state (``direct`` ones make the second walk
    shorter than the first, so deeper columns must fall back to -1, and
    livelier, so the mask must clear).  Every digest batch is hashed by
    this process alone, except in the one fixed example (``data`` None:
    ``branching``), where a forked helper shares each one."""
    engine = engine_over(fabric, {})
    groups = engine._groups
    assert len(engine.flows) > sum(len(g.flows) for g in groups)  # intra-rack
    walks = [ReferenceWalk() for _ in groups]
    if data is None:
        width = 2
        rounds = [(branching(groups), range(len(groups))),
                  (branching(groups, groups[::2]), range(0, len(groups), 2))]
    else:
        width = 1
        rounds = [(data.draw(st.booleans()), range(len(groups)))] + data.draw(
            st.lists(st.tuples(
                st.booleans(),
                st.sets(st.integers(0, len(groups) - 1)).map(sorted)),
                max_size=3))
        rounds = [(DrawnState(data, direct), stale)
                  for direct, stale in rounds]
    with pytest.MonkeyPatch.context() as patch:
        split_every_batch(patch, width)
        forks = forks_seen(patch)
        for state, stale in rounds:
            read_from(engine, state)
            for g in stale:
                walks[g] = reference_walk(engine, groups[g], {})
            if stale:
                engine._walk([groups[g] for g in stale], {})
            assert_same_capture(engine, walks)
    assert (width == 1) == (forks == []) and None not in forks


def chain(dst_tor: str, *hops):
    """A state that forwards everything for ``dst_tor`` along ``hops``
    — ``(node, link)`` pairs from the source ToR on — and then to it."""
    state = {}
    ingress = None
    for (node, link), (after, _) in zip(hops, hops[1:] + ((dst_tor, None),)):
        state[(node, dst_tor, ingress)] = (1, False, ((link, after, "p0"),))
        ingress = "p0"
    return state


def test_a_shorter_rewalk_leaves_no_stale_hops(fabric):
    """The case the list rebuild got for free, spelled out: three hops,
    then one; a dead end, then a live path."""
    state: dict = {}
    engine = engine_over(fabric, state)
    group = engine._groups[0]
    others = [g for g in engine._groups if g is not group]
    src, dst = group.src_tor, group.dst_tor
    for g in engine._groups:
        state.update(chain(g.dst_tor, (g.src_tor, 9)))

    def walked():
        walks = [reference_walk(engine, g, {}) for g in engine._groups]
        engine._walk(engine._groups, {})
        assert_same_capture(engine, walks)
        return np.stack(engine._hops, axis=1)[group.flows]

    state.update(chain(dst, (src, 8), ("a", 10), ("b", 0)))
    assert (walked() == [8, 10, 0]).all()
    state.update(chain(dst, (src, 11)))
    assert (walked() == [11, -1, -1]).all()
    state[(src, dst, None)] = (1, False, ((12, None, None),))   # far MAC down
    assert (walked() == [12, -1, -1]).all()
    assert engine._blackholed_now[group.flows].all()
    state[(src, dst, None)] = (1, False, ((None, None, None),))  # egress down
    assert (walked() == [-1, -1, -1]).all()
    assert engine._blackholed_now[group.flows].all()
    state.update(chain(dst, (src, 13), ("c", 8)))
    assert (walked() == [13, 8, -1]).all()
    assert not engine._blackholed_now.any()
    assert all((np.stack(engine._hops, axis=1)[g.flows]
                == [9, -1, -1]).all() for g in others)


def test_a_loop_epoch_leaves_no_columns_behind(fabric):
    """A transient loop walks every flow of a rack pair to
    ``MAX_FLUID_HOPS``, hashing at every depth; once it heals, the
    resolve drops the hop columns and digest-cache depths no flow reaches
    any more, and the capture is a cold engine's."""
    state: dict = {}
    for g in engine_over(fabric, state)._groups:
        state.update(chain(g.dst_tor, (g.src_tor, 9)))
    engine = engine_over(fabric, state)
    engine._resolve()
    healthy = len(engine._hops)
    group = engine._groups[0]
    src, dst = group.src_tor, group.dst_tor
    state[(src, dst, None)] = (1, False, ((8, "a", "p0"), (9, "a", "p1")))
    for port in PORTS:
        state[("a", dst, port)] = (2, False, ((10, "b", "p0"),
                                              (11, "b", "p1")))
        state[("b", dst, port)] = (3, False, ((12, "a", "p0"),
                                              (13, "a", "p1")))
    engine._resolve()
    assert len(engine._hops) == len(engine._digest_cache) == MAX_FLUID_HOPS
    assert engine._blackholed_now[group.flows].all()

    state.update(chain(dst, (src, 11)))
    engine._resolve()
    assert len(engine._hops) == healthy
    assert len(engine._digest_cache) <= healthy
    cold = engine_over(fabric, state)
    cold._resolve()
    for got, want in ((engine.problem.flow_links, cold.problem.flow_links),
                      (engine.problem.flow_ptr, cold.problem.flow_ptr),
                      (engine._blackholed_now, cold._blackholed_now)):
        assert np.array_equal(got, want)


def test_equally_busy_links_are_ranked_by_name():
    """``hot_links`` ranks links by peak utilisation as printed (to six
    places) and equal peaks by link name, never by link id: ids follow
    the order a walk first meets each link, which is how the walk is
    scheduled, not what the fabric carried.  ``load-churn`` seed 1 on
    8-PoD MR-MTP, driven through a fault, the reroute and the repair,
    ends with more links tied at the third peak than the list has room
    for, their ids out of name order."""
    payload = json.loads((BENCH_INPUTS / "load-churn.json").read_text())
    spec = WorkloadSpec.from_payload(payload["events"][0]["workload"])
    world, topo, deployment = build_and_converge(
        ClosParams(num_pods=8), "mtp", seed=1)
    engine = FluidWorkload(spec, topo, deployment)
    injector = FailureInjector(world, deployment)
    engine.start()
    for step in (lambda: injector.fail_interface("L-1-1", "eth1"),
                 lambda: world.run_for(500 * MILLISECOND),
                 lambda: injector.restore_interface("L-1-1", "eth1"),
                 lambda: world.run_for(500 * MILLISECOND)):
        step()
        engine.mark_epoch()
    hot = engine.finish().hot_links

    peaks = [round(util, 6) for util in engine._peak_util.tolist()]
    names = [engine.link_name(i) for i in range(len(peaks))]
    by_name = sorted(range(len(peaks)), key=lambda i: (-peaks[i], names[i]))
    assert hot == [[names[i], peaks[i]] for i in by_name[:3]]
    # by id, first or last met first, the top three would be others
    tied = [i for i in by_name if peaks[i] == peaks[by_name[2]]]
    assert len(tied) > 3
    assert tied[:3] not in (sorted(tied)[:3], sorted(tied)[::-1][:3])


# ----------------------------------------------------------------------
# helpers: how a batch is hashed never changes what it hashes to
# ----------------------------------------------------------------------
def resolved(fabric) -> FluidWorkload:
    """A fresh engine over the real deployment, resolved once."""
    topo, deployment, flows = fabric
    engine = FluidWorkload(SPEC, topo, deployment, flows=flows)
    engine._resolve()
    return engine


def assert_same_paths(got, want) -> None:
    assert np.array_equal(got.problem.flow_links, want.problem.flow_links)
    assert np.array_equal(got.problem.flow_ptr, want.problem.flow_ptr)
    assert np.array_equal(got._blackholed_now, want._blackholed_now)
    assert np.array_equal(got._surv, want._surv)


def test_a_running_thread_hashes_in_process(fabric, monkeypatch):
    """A process running a second Python thread may not fork: the helper's
    share is hashed here, to the same paths."""
    want = resolved(fabric)
    split_every_batch(monkeypatch, 2)
    forks = forks_seen(monkeypatch)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        got = resolved(fabric)
    finally:
        stop.set()
        thread.join()
    assert forks and set(forks) == {None}
    assert_same_paths(got, want)


def test_a_dead_helper_never_changes_a_result(fabric, monkeypatch):
    """A helper killed mid-batch reports nothing; its share is hashed
    again here, to the same paths, and the helper is reaped."""
    want = resolved(fabric)
    parent, real = os.getpid(), engine_module.ecmp_digests

    def killed_in_a_helper(packed_keys, rows, salt=0):
        if os.getpid() != parent:
            os.kill(os.getpid(), 9)
        return real(packed_keys, rows, salt)

    split_every_batch(monkeypatch, 2)
    forks = forks_seen(monkeypatch)
    monkeypatch.setattr(engine_module, "ecmp_digests", killed_in_a_helper)
    got = resolved(fabric)
    assert forks and None not in forks
    assert_same_paths(got, want)
    for pid in forks:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("interrupt", [KeyboardInterrupt, ValueError])
def test_no_helper_outlives_its_resolve(fabric, monkeypatch, interrupt):
    """Whatever the resolve raises — Ctrl-C included — while a helper is
    still hashing, the helper is killed and reaped before it propagates."""
    parent = os.getpid()

    def stuck_in_a_helper(packed_keys, rows, salt=0):
        if os.getpid() != parent:
            time.sleep(60)
        raise interrupt("while a helper hashes")

    split_every_batch(monkeypatch, 2)
    forks = forks_seen(monkeypatch)
    monkeypatch.setattr(engine_module, "ecmp_digests", stuck_in_a_helper)
    topo, deployment, flows = fabric
    engine = FluidWorkload(SPEC, topo, deployment, flows=flows)
    started = time.monotonic()
    with pytest.raises(interrupt):
        engine._resolve()
    assert time.monotonic() - started < 30
    assert forks and None not in forks
    for pid in forks:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
