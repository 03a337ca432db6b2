"""Fluid workload evaluation against a deployed stack's forwarding state.

The engine replaces per-packet simulation with flow-level (fluid)
evaluation, FatPaths-style: each flow's path is resolved hop by hop
through the stack's *actual* forwarding state (the same live hops
and keyed ECMP hash the data plane and ``pathtrace`` use, via
:func:`~repro.harness.pathtrace.live_hops`), link shares
are solved with the max-min waterfall in :mod:`repro.workload.fluid`,
and per-flow bytes are settled epoch by epoch.

**Epochs.** Simulated time is partitioned at route-change boundaries:
the compiler marks an epoch right after every scheduled fault action,
and a periodic sampler (``spec.epoch_ms``) marks one whenever the
forwarding tables changed since the last capture — so a fault's
pre-detection blackhole and the post-convergence reroute both reshape
the allocation mid-run.  Within an epoch, paths and rates are constant;
a flow delivers ``rate x overlap x survival`` bytes, where survival is
the product of ``(1 - expected loss)`` over its links' impairments.

**Attribution.** Every injected byte lands in exactly one bucket:
*delivered* (reached the sink), *dropped* (lost to link impairments
along a complete path), or *blackholed* (the flow's path dead-ends —
no candidate port, a downed egress, a cut cable, or a routing loop —
and the source keeps injecting at its max-min share on the partial
path).  ``offered == delivered + dropped + blackholed`` holds for every
epoch by construction; the Hypothesis property test holds the
accounting code to it.
"""

from __future__ import annotations

import pickle
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable, Iterator, Mapping, Optional

import numpy as np

from repro.sim.units import MILLISECOND, SECOND
from repro.stack.ipv4 import PROTO_UDP
from repro.harness.fork import (
    OK,
    Child,
    NoFork,
    fork_task,
    kill_and_reap,
    spare_width,
    wait_any,
)
from repro.harness.metrics import nearest_rank_percentile
from repro.harness.pathtrace import MAX_TRACE_HOPS, access_uplink, live_hops
from repro.routing.ecmp import KEY_BYTES, ecmp_digests
from repro.workload.fluid import (
    FluidProblem,
    link_loads,
    max_min_rates,
    stable_order,
)
from repro.workload.spec import WorkloadSpec
from repro.workload.synth import FlowSet, synthesize

#: a walk depth's ECMP misses are hashed in this process alone below
#: this many rows.  A digest costs ~0.75 µs, but two processes hashing
#: on a shared pair of cores each run ~30% slower, and a fork and its
#: report cost milliseconds: split, a 200,000-row batch saved ~3% of
#: ``load-churn``'s wall time for ~6% more CPU, a 1,000,000-row one
#: ~22% of ``load-1m``'s for none
SPLIT_MIN_ROWS = 1 << 18


@dataclass
class EpochRecord:
    """Byte conservation ledger for one solve epoch."""

    start_us: int
    end_us: int
    offered: float
    delivered: float
    dropped: float
    blackholed: float

    def conservation_error(self) -> float:
        """Relative byte-accounting error (0.0 is perfect)."""
        total = self.delivered + self.dropped + self.blackholed
        scale = max(self.offered, total, 1.0)
        return abs(self.offered - total) / scale


@dataclass
class WorkloadReport:
    """Aggregate verdict of one fluid evaluation (the cacheable row)."""

    workload: str
    matrix: str
    flows: int
    completed_flows: int
    blackholed_flows: int      # unfinished because their path dead-ended
    offered_bytes: int
    delivered_bytes: int
    dropped_bytes: int
    blackholed_bytes: int
    goodput_bps: int
    fct_p50_us: int            # -1 when no flow completed
    fct_p99_us: int
    fct_max_us: int
    max_blackhole_us: int      # widest per-flow blackhole window
    blackhole_flow_count: int  # flows that saw any blackhole time
    peak_link_utilization: float
    hot_links: list[list[Any]] = field(default_factory=list)
    epochs: int = 1
    epoch_records: list[list[int]] = field(default_factory=list)
    max_conservation_error: float = 0.0

    def to_payload(self) -> dict:
        """Every field, the lists copied."""
        return asdict(self)

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "WorkloadReport":
        return cls(**{f.name: payload[f.name] for f in fields(cls)})


def _expected_loss(impairment) -> float:
    """Steady-state drop probability of one impaired link direction:
    independent loss, corrupt (dropped at the receiving MAC) and the
    Gilbert–Elliott chain's stationary bad-state loss, composed."""
    if impairment is None:
        return 0.0
    profile = impairment.profile
    survive = (1.0 - profile.loss) * (1.0 - profile.corrupt)
    if profile.ge_p > 0.0 and profile.ge_p + profile.ge_r > 0.0:
        pi_bad = profile.ge_p / (profile.ge_p + profile.ge_r)
        survive *= 1.0 - pi_bad * profile.ge_loss_bad
    return min(max(1.0 - survive, 0.0), 1.0)


def _pieces(requests: list[tuple[np.ndarray, int]], lo: int,
            hi: int) -> Iterator[tuple[np.ndarray, int]]:
    """The ``(rows, salt)`` pieces of positions ``[lo, hi)`` of the
    requests' rows laid end to end."""
    start = 0
    for rows, salt in requests:
        a, b = max(lo - start, 0), min(hi - start, len(rows))
        if a < b:
            yield rows[a:b], salt
        start += len(rows)


def _hash_share(packed_keys: bytes, requests: list[tuple[np.ndarray, int]],
                lo: int, hi: int) -> np.ndarray:
    """A helper's report: the digests of positions ``[lo, hi)``, in order."""
    out = np.empty(hi - lo, dtype=np.uint64)
    at = 0
    for rows, salt in _pieces(requests, lo, hi):
        out[at:at + len(rows)] = ecmp_digests(packed_keys, rows, salt)
        at += len(rows)
    return out


def _hash_batch(packed_keys: bytes, requests: list[tuple[np.ndarray, int]],
                store: Callable[[np.ndarray, int, np.ndarray], None]) -> None:
    """Hash every ``(rows, salt)`` request of one walk depth, handing each
    piece's digests to ``store(rows, salt, digests)`` as they exist.

    A batch of :data:`SPLIT_MIN_ROWS` rows or more is cut into
    :func:`~repro.harness.fork.spare_width` equal shares of its rows laid
    end to end: this process hashes the first while forked helpers hash
    the others and report them.  A digest depends on its flow key and
    salt only, so no split changes one.  A helper that cannot be forked,
    or ends without a whole report, has its share hashed here; on any
    exception, Ctrl-C included, every live helper is killed and reaped
    first.  Helpers only hash: the cache they were forked with is theirs,
    and nothing they write reaches it."""
    total = sum(len(rows) for rows, _ in requests)
    width = spare_width() if total >= SPLIT_MIN_ROWS else 1
    bounds = [total * i // width for i in range(width + 1)]
    helpers: dict[int, Child] = {}
    reports: dict[int, np.ndarray] = {}
    try:
        for i in range(1, width):
            try:
                fork_task(helpers, _hash_share, (
                    packed_keys, requests, bounds[i], bounds[i + 1]), index=i)
            except NoFork:
                break
        for rows, salt in _pieces(requests, 0, bounds[1]):
            store(rows, salt, ecmp_digests(packed_keys, rows, salt))
        while helpers:
            for helper in wait_any(helpers, None):
                try:
                    tag, digests = pickle.loads(helper.blob)[:2]
                except Exception:  # noqa: BLE001 — no report: hashed below
                    continue
                if tag == OK:
                    reports[helper.index] = digests
    except BaseException:
        kill_and_reap(list(helpers.values()))
        raise
    for i in range(1, width):
        digests = reports.pop(i, None)
        at = 0
        for rows, salt in _pieces(requests, bounds[i], bounds[i + 1]):
            store(rows, salt, ecmp_digests(packed_keys, rows, salt)
                  if digests is None else digests[at:at + len(rows)])
            at += len(rows)


@dataclass(eq=False, slots=True)
class _GroupWalk:
    """The flows of one (src rack, dst rack) pair — they share the whole
    walk tree — and what their last walk read."""

    src_tor: str
    dst_tor: str
    flows: np.ndarray            # int32 flow ids, ascending
    # candidate entry per (node, dst_tor, ingress) the walk consulted;
    # empty until the first walk
    reads: dict[tuple, tuple] = field(default_factory=dict)


class FluidWorkload:
    """One workload bound to one built, converged fabric.

    Lifecycle: :meth:`start` at the workload's simulated start time,
    :meth:`mark_epoch` at every route-change boundary (the scenario
    compiler schedules these; the built-in sampler adds table-change
    driven ones), :meth:`finish` at measurement end, then
    :meth:`report`.
    """

    def __init__(self, spec: WorkloadSpec, topo, deployment,
                 flows: Optional[FlowSet] = None, monitor=None) -> None:
        self.spec = spec
        self.topo = topo
        self.deployment = deployment
        self.monitor = monitor   # optional InvariantMonitor, checked per epoch
        self.sim = topo.world.sim
        if flows is None:
            flows = synthesize(spec, topo.rack_endpoints(), topo.world.rng)
        self.flows = flows
        n = len(flows)

        # directed-link registry: transmitting interface -> id, capacity
        self._link_ids: dict[Any, int] = {}
        self._link_ifaces: list = []
        self._capacity: list[float] = []

        # per-flow constants
        self._packed_keys = self._pack_flow_keys()
        self._src_access, self._dst_access = self._access_links()
        self._groups = self._group_by_rack_pair()
        # the fabric link each flow crosses at walk depth d: one int32
        # column per depth reached so far, -1 where the flow has none
        self._hops: list[np.ndarray] = []

        # per-flow running state
        self.remaining = flows.size_bytes.astype(np.float64)
        self.arrival_abs = np.zeros(n, dtype=np.int64)
        self.fct_end = np.full(n, -1.0)
        self.flow_blackhole_us = np.zeros(n, dtype=np.int64)
        self.delivered = 0.0
        self.dropped = 0.0
        self.blackholed = 0.0
        # goodput numerator/denominator: only bytes that landed *inside*
        # the settled measurement window count — the drain's forced tail
        # completion must not launder a blackhole pause into goodput
        self._settled_delivered = 0.0
        self._window_end_us = 0
        self.epoch_records: list[EpochRecord] = []
        self._peak_util = np.zeros(0)

        self._started = False
        self._finished = False
        self._start_us = 0
        self._epoch_start = 0
        self._problem: Optional[FluidProblem] = None
        self._blackholed_now = np.zeros(n, dtype=bool)
        self._surv: Optional[np.ndarray] = None
        self._table_marks: Optional[int] = None
        # ECMP digest cache, see _digests_at: per walk depth a
        # (salt tag, digest) slot per flow; tag 0 is "empty"
        self._salt_tags: dict[int, int] = {}
        self._digest_cache: list[tuple[np.ndarray, np.ndarray]] = []

    # ------------------------------------------------------------------
    # link registry
    # ------------------------------------------------------------------
    def _link_id(self, iface) -> int:
        """Id of the directed link ``iface`` transmits onto."""
        ident = self._link_ids.get(iface)
        if ident is None:
            ident = len(self._link_ifaces)
            self._link_ids[iface] = ident
            self._link_ifaces.append(iface)
            self._capacity.append(iface.link.bandwidth_bps / 8.0)  # bytes/sec
        return ident

    def _link_losses(self) -> np.ndarray:
        """Current expected drop probability per registered directed
        link (re-read every epoch: impairments come and go)."""
        losses = np.zeros(len(self._link_ifaces))
        for ident, iface in enumerate(self._link_ifaces):
            if iface.link is not None:
                losses[ident] = _expected_loss(iface.link.impairment(iface))
        return losses

    def link_name(self, ident: int) -> str:
        return self._link_ifaces[ident].full_name

    # ------------------------------------------------------------------
    # per-flow constants
    # ------------------------------------------------------------------
    def _pack_flow_keys(self) -> bytes:
        """Every flow's FlowKey.pack() bytes, concatenated — the record
        table ecmp_digests consumes, built vectorized."""
        flows = self.flows
        addr = np.array(
            [self.topo.server_address(h).value for h in flows.hosts],
            dtype=np.uint64)
        rec = np.zeros(len(flows), dtype=np.dtype(
            [("src", "<u8"), ("dst", "<u8"), ("proto", "<u2"),
             ("sp", "<u2"), ("dp", "<u2")]))
        rec["src"] = addr[flows.src]
        rec["dst"] = addr[flows.dst]
        rec["proto"] = PROTO_UDP
        rec["sp"] = flows.src_port.astype(np.uint16)
        rec["dp"] = flows.dst_port.astype(np.uint16)
        if rec.itemsize != KEY_BYTES:
            raise RuntimeError(
                f"packed flow record is {rec.itemsize} bytes, "
                f"FlowKey.pack() is {KEY_BYTES}")
        return rec.tobytes()

    def _access_links(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-flow first and last directed link: source host uplink
        and destination ToR's rack-facing downlink."""
        up_of_host = np.empty(len(self.flows.hosts), dtype=np.int32)
        down_of_host = np.empty(len(self.flows.hosts), dtype=np.int32)
        for h, host in enumerate(self.flows.hosts):
            host_if, tor_if = access_uplink(self.topo, host)
            up_of_host[h] = self._link_id(host_if)
            down_of_host[h] = self._link_id(tor_if)
        return (up_of_host[self.flows.src], down_of_host[self.flows.dst])

    def _group_by_rack_pair(self) -> list[_GroupWalk]:
        """Flows bucketed by (src rack, dst rack), in rack-pair order.
        Intra-rack flows ride their access links only and get no group."""
        flows = self.flows
        if len(flows) > np.iinfo(np.int32).max:
            raise ValueError("flow ids are kept as int32: "
                             f"{len(flows)} flows is too many")
        n_tors = len(flows.tors)
        src_tors = flows.host_tor[flows.src]
        dst_tors = flows.host_tor[flows.dst]
        pair = src_tors.astype(np.int64) * n_tors + dst_tors
        order = stable_order(pair, n_tors * n_tors).astype(np.int32)
        boundaries = np.flatnonzero(np.diff(pair[order])) + 1
        groups = []
        for members in np.split(order, boundaries):
            src_tor = flows.tors[int(src_tors[members[0]])]
            dst_tor = flows.tors[int(dst_tors[members[0]])]
            if src_tor != dst_tor:
                groups.append(_GroupWalk(src_tor, dst_tor, members))
        return groups

    # ------------------------------------------------------------------
    # path resolution (one forwarding-state capture)
    # ------------------------------------------------------------------
    def _digests_at(self, depth: int,
                    wanted: list[tuple[np.ndarray, int]]) -> np.ndarray:
        """The digest column of walk depth ``depth``, holding the raw ECMP
        digest of every flow of every ``(flows, salt)`` in ``wanted``.
        Flow key and node salt never change, so a digest is computed once
        and kept: one slot per flow and walk depth, tagged with the salt
        it was keyed with (a flow rerouted through another node at that
        depth overwrites it).  The misses of the whole depth are hashed
        as one batch and written straight into their slots."""
        while len(self._digest_cache) <= depth:
            n = len(self.flows)
            self._digest_cache.append((np.zeros(n, dtype=np.uint16),
                                       np.empty(n, dtype=np.uint64)))
        tags, digests = self._digest_cache[depth]
        salt_tags = self._salt_tags
        misses = []
        for idx, salt in wanted:
            tag = salt_tags.setdefault(salt, len(salt_tags) + 1)
            if tag > np.iinfo(np.uint16).max:
                raise RuntimeError("more distinct ECMP salts than "
                                   "digest-cache tags")
            miss = idx[tags[idx] != tag]
            if len(miss):
                misses.append((miss, salt))

        def store(rows: np.ndarray, salt: int, got: np.ndarray) -> None:
            digests[rows] = got
            tags[rows] = salt_tags[salt]

        if misses:
            _hash_batch(self._packed_keys, misses, store)
        return digests

    def _candidate_entry(self, memo: dict, key: tuple) -> tuple:
        """The live candidate set at ``key = (node, dst_tor, ingress)``
        as ``(salt, spray, ((link id, peer node, peer iface), ...))`` —
        link id None when the frame never leaves the node, peer None
        when it is dropped — read once per resolve (``memo``)."""
        entry = memo.get(key)
        if entry is None:
            salt, spray, hops = live_hops(self.deployment, *key)
            entry = memo[key] = (salt, spray, tuple(
                (self._link_id(egress) if leaves else None,
                 None if peer is None else peer.node.name,
                 None if peer is None else peer.name)
                for egress, leaves, peer in hops))
        return entry

    def _wipe(self, flows: np.ndarray) -> None:
        """Forget what earlier walks wrote for ``flows``: their cells in
        every hop column and in the blackholed mask."""
        for column in self._hops:
            column[flows] = -1
        self._blackholed_now[flows] = False

    def _walk(self, groups: list[_GroupWalk], memo: dict) -> None:
        """Walk the rack pairs ``groups`` hop by hop through the live
        candidate sets, breadth-first and all together; per-flow work
        happens only at genuine ECMP branch points, and one depth's
        digest misses are hashed as one batch.  Writes the links crossed
        into the hop columns and the dead-ended flows into the
        blackholed mask — both wiped for these groups' flows first, so
        nothing survives of a previous walk that went deeper or died —
        and leaves on each group every candidate entry its walk read.
        Within a depth no flow is in two places, so the order the
        branch points are taken in changes no cell.  Link ids are
        handed out in the order this walk first meets each link."""
        self._wipe(np.concatenate([group.flows for group in groups]))
        dead = self._blackholed_now
        for group in groups:
            group.reads = {}
        frontier = [(group, group.src_tor, None, group.flows)
                    for group in groups]
        depth = 0
        while frontier:
            branches, hashed = [], []
            for group, node, ingress, idx in frontier:
                if node == group.dst_tor:
                    continue
                if depth >= MAX_TRACE_HOPS:
                    dead[idx] = True  # routing loop
                    continue
                key = (node, group.dst_tor, ingress)
                entry = group.reads[key] = self._candidate_entry(memo, key)
                salt, spray, entries = entry
                if not entries:
                    dead[idx] = True  # no candidate port at all
                    continue
                if len(entries) > 1 and not spray:
                    hashed.append((idx, salt))
                branches.append((group, idx, spray, entries))
            digests = self._digests_at(depth, hashed) if hashed else None
            frontier, hashed = [], None
            for k, (group, idx, spray, entries) in enumerate(branches):
                branches[k] = None  # its flows live on in its parts only
                if len(entries) == 1:
                    parts = [idx]
                else:
                    if spray:
                        # per-packet spray approximated fluidly: flows
                        # spread round-robin by flow id (even split,
                        # deterministic)
                        choice = idx % len(entries)
                    else:
                        # the genuine keyed ECMP hash, per flow
                        choice = digests[idx] % np.uint64(len(entries))
                    parts = [idx[choice == c] for c in range(len(entries))]
                for (link, peer_node, peer_iface), part in zip(entries, parts):
                    if len(part) == 0:
                        continue
                    if link is not None:
                        if depth == len(self._hops):
                            self._hops.append(
                                np.full(len(self.flows), -1, dtype=np.int32))
                        self._hops[depth][part] = link
                    if peer_node is None:
                        dead[part] = True
                    else:
                        frontier.append((group, peer_node, peer_iface, part))
            depth += 1

    def _assemble_paths(self) -> None:
        """Rebuild the flow->link CSR from the hop columns.  A flow's
        links sit in hop order — source access link, the fabric hop
        taken at walk depth 0, 1, ..., destination access link if it
        got there — and a flow's hops are contiguous from depth 0, so
        the crossed cells of its row, read left to right, are its path
        and nothing needs sorting."""
        n = len(self.flows)
        links = np.empty((n, len(self._hops) + 2), dtype=np.int32)
        links[:, 0] = self._src_access
        for depth, column in enumerate(self._hops):
            links[:, depth + 1] = column
        links[:, -1] = self._dst_access
        links[self._blackholed_now, -1] = -1
        crossed = links >= 0
        flow_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(crossed.sum(axis=1), out=flow_ptr[1:])
        # int64 on purpose: np.bincount converts anything else, per call
        self._problem = FluidProblem(
            capacity=np.asarray(self._capacity, dtype=np.float64),
            flow_links=links[crossed].astype(np.int64), flow_ptr=flow_ptr)

    def _resolve(self) -> None:
        """Capture forwarding state *now*: every flow's path through
        the deployment's live candidate sets, as the flow->link CSR the
        next solve uses.  Candidate entries, interface and peer state
        and link losses are read afresh; a rack pair is walked again
        only if an entry its last walk read has changed, and the CSR is
        rebuilt only if some pair was.  After a walk, hop columns (and
        digest-cache depths) that no flow reaches any more are dropped:
        a transient loop's 32 columns do not outlive it."""
        memo: dict[tuple[str, str, Optional[str]], tuple] = {}
        stale = [group for group in self._groups
                 if not group.reads or any(
                     self._candidate_entry(memo, key) != entry
                     for key, entry in group.reads.items())]
        if stale:
            self._walk(stale, memo)
            hops = self._hops
            while hops and hops[-1].max() < 0:
                hops.pop()
            del self._digest_cache[len(hops):]
        if stale or self._problem is None:
            self._assemble_paths()

        # per-flow survival under the current impairments
        losses = self._link_losses()
        if losses.any():
            log_surv = np.log1p(-np.minimum(losses, 1.0 - 1e-12))
            # no flow's link list is empty (the source access link is
            # always there), so every reduceat segment is a genuine sum
            self._surv = np.exp(np.add.reduceat(
                log_surv[self._problem.flow_links],
                self._problem.flow_ptr[:-1]))
        else:
            # what exp(sum of log1p(-0.0)) comes to, without the gather
            self._surv = np.ones(len(self.flows))
        self._surv[self._blackholed_now] = 0.0

        self._table_marks = self._forwarding_marks()
        if self.monitor is not None:
            # every forwarding-state capture is an invariant-check
            # instant: the monitor sees exactly the states flows ride
            self.monitor.check()

    @property
    def problem(self) -> Optional[FluidProblem]:
        """The max-min problem of the latest forwarding-state capture
        (``None`` before :meth:`start`); read-only for callers."""
        return self._problem

    def _forwarding_marks(self) -> int:
        """Current forwarding-state version: the deployment's
        ``route_generation`` (which also counts liveness transitions —
        graceful restart changes forwarding without a table write)."""
        return self.deployment.route_generation()

    def _tables_changed(self) -> bool:
        return self._forwarding_marks() != self._table_marks

    # ------------------------------------------------------------------
    # epoch lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Open epoch 0 at the current simulated time and arm the
        table-change sampler."""
        if self._started:
            raise RuntimeError("workload already started")
        self._started = True
        self._start_us = self.sim.now
        self._epoch_start = self.sim.now
        self.arrival_abs = self._start_us + self.flows.arrival_us
        self._resolve()
        self.sim.schedule_after(self.spec.epoch_ms * MILLISECOND,
                                self._sample)

    def mark_epoch(self) -> None:
        """Close the running epoch at the current simulated time and
        re-capture forwarding state — the route-change boundary."""
        if not self._started or self._finished:
            return
        now = self.sim.now
        if now > self._epoch_start:
            self._settle(now)
        self._epoch_start = now
        self._resolve()

    def _sample(self) -> None:
        if self._finished:
            return
        if self._tables_changed():
            self.mark_epoch()
        self.sim.schedule_after(self.spec.epoch_ms * MILLISECOND,
                                self._sample)

    def finish(self) -> WorkloadReport:
        """Close the last epoch at the current simulated time, drain
        the unfinished flows at their final rates, and report."""
        if not self._started:
            raise RuntimeError("workload never started")
        if self._finished:
            return self.report()
        self._finished = True
        now = max(self.sim.now, self._epoch_start)
        if now > self._epoch_start:
            self._settle(now)
        self._drain(now)
        return self.report()

    # ------------------------------------------------------------------
    # settlement
    # ------------------------------------------------------------------
    def _solve(self, active: np.ndarray) -> np.ndarray:
        return max_min_rates(self._problem, active)

    def _settle(self, t_end: int) -> None:
        """Account bytes for [epoch_start, t_end) at max-min rates."""
        t0 = self._epoch_start
        active = (self.remaining > 0) & (self.arrival_abs < t_end)
        record = EpochRecord(start_us=t0, end_us=t_end, offered=0.0,
                             delivered=0.0, dropped=0.0, blackholed=0.0)
        if active.any():
            # the solver gives exactly 0.0 to every flow not active
            rate = self._solve(active)
            self._account(record, rate, active)
            self.delivered += record.delivered
            self.dropped += record.dropped
            self.blackholed += record.blackholed
            self._settled_delivered += record.delivered

            # the run's widest call, made with _account's arrays released
            loads = link_loads(self._problem, rate)
            util = loads / np.maximum(self._problem.capacity, 1e-300)
            if len(util) > len(self._peak_util):
                grown = np.zeros(len(util))
                grown[:len(self._peak_util)] = self._peak_util
                self._peak_util = grown
            np.maximum(self._peak_util, util, out=self._peak_util)
        self.epoch_records.append(record)
        self._window_end_us = t_end

    def _account(self, record: EpochRecord, rate: np.ndarray,
                 active: np.ndarray) -> None:
        """Move ``record``'s epoch worth of bytes at ``rate``: fill in
        its ledger, and update each flow's remaining bytes, completion
        time and blackhole window.  Every sum runs over a full-width
        array in flow order, so a ledger does not depend on which flows
        happened to be active."""
        bh = self._blackholed_now
        surv = self._surv
        start_eff = np.maximum(record.start_us, self.arrival_abs)
        overlap = np.maximum(record.end_us - start_eff, 0)
        sent = rate * (overlap / SECOND)   # injected if nothing stops it
        potential = sent * surv
        # what those hold for a flow outside these two is never read
        routed = active & ~bh
        bh_active = active & bh

        done = np.flatnonzero(
            routed & (potential >= self.remaining) & (potential > 0))
        self.fct_end[done] = start_eff[done] + self.remaining[done] \
            / np.maximum(rate[done] * surv[done] / SECOND, 1e-300)

        delivered_now = np.minimum(potential, self.remaining, out=potential)
        delivered_now[~routed] = 0.0
        self.remaining -= delivered_now
        record.delivered = float(delivered_now.sum())

        injected = delivered_now / np.maximum(surv, 1e-300)
        lost_whole = routed & ~(surv > 0)
        injected[lost_whole] = sent[lost_whole]
        record.dropped = float(
            np.subtract(injected, delivered_now, out=injected).sum())

        self.flow_blackhole_us[bh_active] += overlap[bh_active]
        sent[~bh_active] = 0.0
        record.blackholed = float(sent.sum())
        record.offered = (record.delivered + record.dropped
                          + record.blackholed)

    def _drain(self, t_end: int) -> None:
        """Complete every routed flow that still holds bytes at the
        final forwarding state's rates (the tail past the measurement
        window); blackholed flows never complete."""
        open_flows = (self.remaining > 0) & ~self._blackholed_now \
            & (self._surv > 0)
        if not open_flows.any():
            return
        rate = self._solve(open_flows)
        movable = np.flatnonzero(open_flows & (rate > 0))
        left = self.remaining[movable]
        surv = self._surv[movable]
        self.fct_end[movable] = np.maximum(t_end, self.arrival_abs[movable]) \
            + left / np.maximum(rate[movable] * surv / SECOND, 1e-300)
        self.remaining[movable] = 0.0
        # full width again for the ledger: its sums run in flow order
        delivered_now = np.zeros(len(rate))
        delivered_now[movable] = left
        injected = np.zeros(len(rate))
        injected[movable] = left / np.maximum(surv, 1e-300)
        record = EpochRecord(
            start_us=t_end, end_us=t_end,
            offered=float(injected.sum()),
            delivered=float(delivered_now.sum()),
            dropped=float((injected - delivered_now).sum()),
            blackholed=0.0)
        self.delivered += record.delivered
        self.dropped += record.dropped
        self.epoch_records.append(record)

    # ------------------------------------------------------------------
    def report(self) -> WorkloadReport:
        flows = self.flows
        completed = self.fct_end >= 0
        fct = (self.fct_end[completed]
               - self.arrival_abs[completed]).astype(np.int64)
        fct_sorted = np.sort(fct)
        # goodput over the settled measurement window only: bytes a
        # blackhole pushed past the window (delivered by the drain's
        # tail completion) are backlog, not goodput
        window_us = self._window_end_us - self._start_us
        goodput = (self._settled_delivered * 8 * SECOND / window_us
                   if window_us > 0 else 0.0)
        unfinished_bh = int(((self.remaining > 0)
                             & self._blackholed_now).sum())
        # the three busiest links, peaks equal as printed (to 6
        # places) in link-name order
        busy = [[self.link_name(i), round(util, 6)]
                for i, util in enumerate(self._peak_util.tolist())
                if util > 0]
        hot = sorted(busy, key=lambda link: (-link[1], link[0]))[:3]
        records = [[r.start_us, r.end_us, int(round(r.offered)),
                    int(round(r.delivered)), int(round(r.dropped)),
                    int(round(r.blackholed))] for r in self.epoch_records]
        max_err = max((r.conservation_error()
                       for r in self.epoch_records), default=0.0)
        return WorkloadReport(
            workload=self.spec.name,
            matrix=self.spec.matrix,
            flows=len(flows),
            completed_flows=int(completed.sum()),
            blackholed_flows=unfinished_bh,
            offered_bytes=int(round(self.delivered + self.dropped
                                    + self.blackholed)),
            delivered_bytes=int(round(self.delivered)),
            dropped_bytes=int(round(self.dropped)),
            blackholed_bytes=int(round(self.blackholed)),
            goodput_bps=int(round(goodput)),
            fct_p50_us=nearest_rank_percentile(fct_sorted, 50),
            fct_p99_us=nearest_rank_percentile(fct_sorted, 99),
            fct_max_us=int(fct_sorted[-1]) if len(fct_sorted) else -1,
            max_blackhole_us=int(self.flow_blackhole_us.max())
            if len(flows) else 0,
            blackhole_flow_count=int((self.flow_blackhole_us > 0).sum()),
            peak_link_utilization=round(float(self._peak_util.max()), 6)
            if len(self._peak_util) else 0.0,
            hot_links=hot,
            epochs=len(self.epoch_records),
            epoch_records=records,
            max_conservation_error=max_err,
        )
