"""Max-min fluid bandwidth allocation: the progressive-filling waterfall.

Given directed-link capacities and each flow's link list (CSR layout),
compute the max-min fair rate vector: raise every flow's rate together
until some link saturates, freeze the flows through it at that link's
fair share, subtract what they consume, repeat.  The classic waterfall
— but vectorized, so a million flows over a few hundred links solve in
seconds, not hours.

Invariants (the ones DESIGN §13 states and the property tests enforce):

* every active flow with at least one link receives a finite rate
  >= 0, and rate > 0 whenever all its links start with capacity > 0;
* no link is over-subscribed: sum of frozen rates through a link never
  exceeds its capacity (beyond float epsilon);
* the allocation is max-min: a flow's rate can only be raised by
  lowering that of a flow with an equal-or-smaller rate.

The solver is pure numpy + deterministic tie-breaking (ties freeze
together within ``_EPS``), so identical inputs give bit-identical rate
vectors on every run — the property the run-digest machinery needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

_EPS = 1e-9


def _multi_arange(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start+length)`` ranges, vectorized."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(lengths)
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - lengths,
                                                          lengths)
    return np.repeat(starts, lengths) + within


def stable_order(keys: np.ndarray, n_keys: int) -> np.ndarray:
    """The stable argsort of integer ``keys`` drawn from ``[0, n_keys)``.

    Sorting the keys cast to the narrowest unsigned dtype that holds
    ``n_keys - 1`` gives the same permutation — the cast is monotonic
    and a stable sort has exactly one answer — and up to 16 bits NumPy's
    stable sort is an O(n) radix sort."""
    narrow = np.min_scalar_type(max(n_keys - 1, 0))
    return np.argsort(keys.astype(narrow), kind="stable")


@dataclass(frozen=True, eq=False)
class FluidProblem:
    """One forwarding state's max-min inputs: link capacities plus the
    flow->link CSR.  Immutable — the attributes are read-only views of
    the arrays given, which the caller must not keep writing to — so the
    link->flow index derived from them can be kept for every solve."""

    capacity: np.ndarray    # float64 [L], bytes/sec
    flow_links: np.ndarray  # int64 concatenated link ids, flow-major
    flow_ptr: np.ndarray    # int64 [F+1] CSR offsets into flow_links
    # flow_links as it was given: np.bincount copies a read-only input
    # (and converts a non-intp one), so it gets the array itself
    _bincount_links: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        flow_ptr, flow_links = self.flow_ptr, self.flow_links
        if len(flow_ptr) == 0 or flow_ptr[0] != 0:
            raise ValueError("flow_ptr must start at 0")
        if (self.lengths < 0).any():
            raise ValueError("flow_ptr must be non-decreasing")
        if flow_ptr[-1] != len(flow_links):
            raise ValueError(
                f"flow_ptr ends at {flow_ptr[-1]}, flow_links has "
                f"{len(flow_links)} entries")
        if len(flow_links) and not (
                0 <= flow_links.min() and flow_links.max() < self.n_links):
            raise ValueError(
                f"link ids must lie in [0, {self.n_links}): got "
                f"{flow_links.min()}..{flow_links.max()}")
        object.__setattr__(self, "_bincount_links", flow_links)
        for name in ("capacity", "flow_links", "flow_ptr"):
            view = getattr(self, name).view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)

    @property
    def n_flows(self) -> int:
        return len(self.flow_ptr) - 1

    @property
    def n_links(self) -> int:
        return len(self.capacity)

    @cached_property
    def lengths(self) -> np.ndarray:
        """Links per flow, int64 [F]."""
        lengths = np.diff(self.flow_ptr)
        lengths.setflags(write=False)
        return lengths

    @cached_property
    def link_index(self) -> tuple[np.ndarray, np.ndarray]:
        """The CSR inverse over *all* flows: ``(link_flows, link_ptr)``
        where ``link_flows[link_ptr[l]:link_ptr[l + 1]]`` are the flows
        crossing link ``l`` (int32, ascending, one entry per crossing).
        Built on first use, once per problem; a solve reads it as it is,
        its frozen mask dropping the flows that take no part."""
        if self.n_flows > np.iinfo(np.int32).max:
            raise ValueError("flow ids are indexed as int32: "
                             f"{self.n_flows} flows is too many")
        entry_flow = np.repeat(np.arange(self.n_flows, dtype=np.int32),
                               self.lengths)
        link_flows = entry_flow[stable_order(self.flow_links, self.n_links)]
        link_ptr = np.zeros(self.n_links + 1, dtype=np.int64)
        np.cumsum(np.bincount(self._bincount_links, minlength=self.n_links),
                  out=link_ptr[1:])
        link_flows.setflags(write=False)
        link_ptr.setflags(write=False)
        return link_flows, link_ptr


def max_min_rates(problem: FluidProblem,
                  active: Optional[np.ndarray] = None) -> np.ndarray:
    """The max-min fair rate vector (bytes/sec, float64 [F]).

    ``active`` masks flows out of the allocation (rate 0, no capacity
    consumed) — the engine uses it for flows that have finished or not
    yet arrived.  Flows with an empty link list get rate 0.
    """
    n_flows, n_links = problem.n_flows, problem.n_links
    rate = np.zeros(n_flows, dtype=np.float64)
    if n_flows == 0 or n_links == 0:
        return rate
    flow_ptr = problem.flow_ptr
    flow_links = problem.flow_links
    lengths = problem.lengths
    if active is None:
        active = np.ones(n_flows, dtype=bool)
    live = active & (lengths > 0)

    # the index covers every flow; the ones out of this solve start
    # frozen, and every level drops frozen candidates, so all a solve
    # needs of its own is the live crossings per link.  Entries of
    # consecutive occupied links are adjacent, so each reduceat segment
    # is exactly one link's
    link_flows, link_ptr = problem.link_index
    counts = np.diff(link_ptr)
    occupied = np.flatnonzero(counts)
    unfrozen = np.zeros(n_links, dtype=np.int64)  # live, not yet frozen
    unfrozen[occupied] = np.add.reduceat(
        live[link_flows], link_ptr[:-1][occupied], dtype=np.int64)

    remaining = problem.capacity.astype(np.float64)
    frozen = ~live             # inactive flows count as already frozen
    mark = np.zeros(n_flows, dtype=bool)   # scratch, all False between levels

    for _ in range(n_links + 1):
        eligible = unfrozen > 0
        if not eligible.any():
            break
        share = np.full(n_links, np.inf)
        share[eligible] = np.maximum(remaining[eligible], 0.0) \
            / unfrozen[eligible]
        level = share.min()
        bottleneck = np.flatnonzero(eligible & (share <= level + _EPS
                                                + _EPS * level))
        # flows riding any bottleneck link freeze at the water level;
        # marking them dedupes a flow that rides two, in ascending order
        cand = link_flows[_multi_arange(link_ptr[bottleneck],
                                        counts[bottleneck])]
        mark[cand[~frozen[cand]]] = True
        newly = np.flatnonzero(mark)
        if len(newly) == 0:
            break  # numerically stuck: everything left is frozen
        mark[newly] = False
        frozen[newly] = True
        rate[newly] = level
        # subtract the frozen flows' consumption from every link they
        # cross; each flow is processed exactly once over the whole
        # solve, so total scatter work is O(total path length)
        entries = flow_links[_multi_arange(flow_ptr[newly],
                                           lengths[newly])]
        np.subtract.at(remaining, entries, level)
        unfrozen -= np.bincount(entries, minlength=n_links)

    np.clip(rate, 0.0, None, out=rate)
    rate[~live] = 0.0
    return rate


def link_loads(problem: FluidProblem, rate: np.ndarray) -> np.ndarray:
    """Per-link carried load (bytes/sec [L]) for a rate vector."""
    weights = np.repeat(rate, problem.lengths)
    return np.bincount(problem._bincount_links, weights=weights,
                       minlength=problem.n_links)
