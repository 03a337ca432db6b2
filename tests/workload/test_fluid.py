"""The max-min waterfall's invariants (DESIGN §13)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.workload.fluid import FluidProblem, link_loads, max_min_rates


def problem(capacity, paths):
    """Build a FluidProblem from per-flow link-id lists."""
    flow_links = np.concatenate(
        [np.asarray(p, dtype=np.int64) for p in paths]
        or [np.empty(0, dtype=np.int64)])
    flow_ptr = np.zeros(len(paths) + 1, dtype=np.int64)
    np.cumsum([len(p) for p in paths], out=flow_ptr[1:])
    return FluidProblem(capacity=np.asarray(capacity, dtype=np.float64),
                        flow_links=flow_links, flow_ptr=flow_ptr)


def test_equal_share_on_one_link():
    prob = problem([100.0], [[0], [0], [0], [0]])
    rate = max_min_rates(prob)
    assert np.allclose(rate, 25.0)


def test_empty_path_and_inactive_flows_get_zero():
    prob = problem([100.0], [[0], [], [0]])
    rate = max_min_rates(prob, active=np.array([True, True, False]))
    assert rate[1] == 0.0 and rate[2] == 0.0
    assert np.isclose(rate[0], 100.0)  # alone on the link


def test_waterfall_two_bottlenecks():
    """The textbook example: flows A(link0), B(link0+link1), C(link1)
    with capacities 10 and 20: A=B=5 at link0, then C fills link1 to 15."""
    prob = problem([10.0, 20.0], [[0], [0, 1], [1]])
    rate = max_min_rates(prob)
    assert np.allclose(rate, [5.0, 5.0, 15.0])


def test_no_link_oversubscribed_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n_links = int(rng.integers(2, 12))
        capacity = rng.uniform(1.0, 100.0, size=n_links)
        paths = [rng.choice(n_links,
                            size=int(rng.integers(1, min(5, n_links + 1))),
                            replace=False)
                 for _ in range(int(rng.integers(1, 40)))]
        prob = problem(capacity, paths)
        rate = max_min_rates(prob)
        assert (rate >= 0).all() and np.isfinite(rate).all()
        assert (rate > 0).all()  # all capacities positive -> all flow
        loads = link_loads(prob, rate)
        assert (loads <= capacity * (1 + 1e-6)).all()


def test_max_min_fairness_property():
    """No flow can be raised without lowering an equal-or-smaller one:
    every flow has a bottleneck link that is saturated and on which it
    holds a maximal rate."""
    rng = np.random.default_rng(11)
    n_links = 8
    capacity = rng.uniform(5.0, 50.0, size=n_links)
    paths = [rng.choice(n_links, size=int(rng.integers(1, 4)),
                        replace=False) for _ in range(30)]
    prob = problem(capacity, paths)
    rate = max_min_rates(prob)
    loads = link_loads(prob, rate)
    for f, path in enumerate(paths):
        saturated = [l for l in path
                     if loads[l] >= capacity[l] * (1 - 1e-6)]
        assert saturated, f"flow {f} has no bottleneck"
        assert any(
            rate[f] >= max(rate[g] for g, p in enumerate(paths)
                           if l in set(p.tolist())) - 1e-6
            for l in saturated), f"flow {f} not maximal on any bottleneck"


def test_deterministic_bit_identical():
    rng = np.random.default_rng(5)
    capacity = rng.uniform(1.0, 10.0, size=6)
    paths = [rng.choice(6, size=2, replace=False) for _ in range(25)]
    prob = problem(capacity, paths)
    a = max_min_rates(prob)
    b = max_min_rates(prob)
    assert a.tobytes() == b.tobytes()


def test_zero_capacity_link_pins_flows_to_zero():
    prob = problem([0.0, 100.0], [[0, 1], [1]])
    rate = max_min_rates(prob)
    assert rate[0] == 0.0
    assert np.isclose(rate[1], 100.0)


def test_empty_problem():
    prob = problem([], [])
    assert len(max_min_rates(prob)) == 0


@given(data=st.data())
def test_waterfall_invariants_hypothesis(data):
    """Property form: any random problem keeps rates finite and
    non-negative and no link oversubscribed."""
    n_links = data.draw(st.integers(1, 10))
    capacity = data.draw(st.lists(
        st.floats(0.0, 1000.0, allow_nan=False), min_size=n_links,
        max_size=n_links))
    n_flows = data.draw(st.integers(0, 25))
    paths = [
        np.unique(data.draw(st.lists(st.integers(0, n_links - 1),
                                     min_size=1, max_size=4)))
        for _ in range(n_flows)
    ]
    prob = problem(capacity, paths)
    rate = max_min_rates(prob)
    assert (rate >= 0).all() and np.isfinite(rate).all()
    loads = link_loads(prob, rate)
    cap = np.asarray(capacity)
    assert (loads <= cap * (1 + 1e-6) + 1e-9).all()


# ----------------------------------------------------------------------
# The solver before it kept a link->flow index on the problem, verbatim:
# it sorts the live entries on every solve and dedupes with np.unique.
# Kept here as the oracle the indexed solver must match bit for bit.
# ----------------------------------------------------------------------
_EPS = 1e-9


def _multi_arange(starts, lengths):
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(lengths)
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - lengths,
                                                          lengths)
    return np.repeat(starts, lengths) + within


def reference_max_min_rates(problem, active=None):
    n_flows, n_links = problem.n_flows, problem.n_links
    rate = np.zeros(n_flows, dtype=np.float64)
    if n_flows == 0 or n_links == 0:
        return rate
    flow_ptr = problem.flow_ptr
    flow_links = problem.flow_links
    lengths = np.diff(flow_ptr)
    if active is None:
        active = np.ones(n_flows, dtype=bool)
    live = active & (lengths > 0)

    # link -> flows CSR (only live flows participate)
    live_entry = np.repeat(live, lengths)
    entry_flow = np.repeat(np.arange(n_flows, dtype=np.int64), lengths)
    links_live = flow_links[live_entry]
    flows_live = entry_flow[live_entry]
    order = np.argsort(links_live, kind="stable")
    link_flows = flows_live[order]
    counts = np.bincount(links_live, minlength=n_links).astype(np.int64)
    link_ptr = np.zeros(n_links + 1, dtype=np.int64)
    np.cumsum(counts, out=link_ptr[1:])

    remaining = problem.capacity.astype(np.float64).copy()
    unfrozen = counts.copy()   # live, not-yet-frozen flows per link
    frozen = ~live             # inactive flows count as already frozen

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
        # flows riding any bottleneck link freeze at the water level
        cand = link_flows[_multi_arange(link_ptr[bottleneck],
                                        counts[bottleneck])]
        newly = np.unique(cand[~frozen[cand]])
        if len(newly) == 0:
            break  # numerically stuck: everything left is frozen
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


@given(data=st.data())
def test_indexed_solver_is_bitwise_the_reference(data):
    """Differential property: the index built once per problem and
    read unfiltered by every solve gives the reference's rate vector bit
    for bit — over contended and tied capacities, empty link lists,
    link-id ranges that sort as uint8 / uint16 / uint32 keys, and
    several differently masked solves on one problem object (a cached
    index must not leak the previous mask, nor the scratch mask a
    previous water level).  The solver counts live crossings per link
    with one ``reduceat`` over the occupied links, so the draws pin its
    edges: the last link occupied (its segment runs to the end of the
    index) or trailing links nobody crosses, a link whose flows are all
    masked out, masks that leave one flow in a crowd, and a flow that
    crosses one link twice (two crossings, as the per-level
    ``bincount`` counts it)."""
    n_links = data.draw(st.sampled_from([3, 300, 70_000]))
    # a few shared links, spread over the whole id range, so flows
    # contend and ids above 2**16 meet ids below it
    last_link_used = data.draw(st.booleans())
    hot = data.draw(st.lists(
        st.integers(0, n_links - (1 if last_link_used else 2)), min_size=1,
        max_size=6, unique=True))
    if last_link_used and n_links - 1 not in hot:
        hot.append(n_links - 1)
    capacity = np.zeros(n_links)
    capacity[hot] = data.draw(st.lists(
        st.one_of(st.sampled_from([0.0, 10.0, 30.0]),
                  st.floats(0.0, 1000.0, allow_nan=False)),
        min_size=len(hot), max_size=len(hot)))
    # duplicates allowed: a looping walk crosses a link twice
    paths = data.draw(st.lists(
        st.lists(st.sampled_from(hot), min_size=0, max_size=5),
        min_size=0, max_size=40))
    if data.draw(st.booleans()):
        paths.append([hot[0], hot[-1], hot[0]])
    prob = problem(capacity, paths)

    entry_flow = np.repeat(np.arange(len(paths)), prob.lengths)
    link_flows, link_ptr = prob.link_index
    assert link_flows.dtype == np.int32
    assert np.array_equal(
        link_flows, entry_flow[np.argsort(prob.flow_links, kind="stable")])
    assert np.array_equal(np.diff(link_ptr), np.bincount(
        prob.flow_links, minlength=n_links))

    masks = [None] + data.draw(st.lists(
        st.lists(st.booleans(), min_size=len(paths), max_size=len(paths)),
        min_size=2, max_size=4))
    if paths:
        # one flow left live; then the last drawn mask with every flow
        # that crosses one of the hot links switched off as well
        lone = np.zeros(len(paths), dtype=bool)
        lone[data.draw(st.integers(0, len(paths) - 1))] = True
        dark = data.draw(st.sampled_from(hot))
        off_link = np.asarray(masks[-1], dtype=bool) & np.asarray(
            [dark not in path for path in paths])
        masks += [lone, off_link]
    for mask in masks:
        active = None if mask is None else np.asarray(mask, dtype=bool)
        assert np.array_equal(max_min_rates(prob, active),
                              reference_max_min_rates(prob, active))


@pytest.mark.parametrize("capacity, flow_links, flow_ptr, message", [
    ([1.0, 1.0], [0, 2], [0, 1, 2], "link ids"),
    ([1.0, 1.0], [0, -1], [0, 1, 2], "link ids"),
    ([1.0], [0, 0], [1, 2], "start at 0"),
    ([1.0], [0, 0], [], "start at 0"),
    ([1.0], [0, 0], [0, 2, 1, 2], "non-decreasing"),
    ([1.0], [0, 0], [0, 1], "flow_links has 2"),
    ([1.0], [0], [0, 1, 2], "flow_links has 1"),
])
def test_construction_rejects_inconsistent_input(capacity, flow_links,
                                                 flow_ptr, message):
    with pytest.raises(ValueError, match=message):
        FluidProblem(capacity=np.asarray(capacity, dtype=np.float64),
                     flow_links=np.asarray(flow_links, dtype=np.int64),
                     flow_ptr=np.asarray(flow_ptr, dtype=np.int64))


def test_given_slices_or_read_only_arrays_a_problem_is_the_same_problem():
    """``np.bincount`` is handed the ``flow_links`` array the problem
    was built from, not the read-only view it publishes.  Whatever that
    array is — a slice out of the middle of a larger one, a strided
    slice, or one already read-only (``dataclasses.replace`` passes the
    published views back in, and NumPy then copies) — the index, the
    loads and a solve are those of a problem built from fresh copies."""
    rng = np.random.default_rng(7)
    n_links = 9
    paths = [rng.integers(0, n_links, size=int(rng.integers(0, 5)))
             for _ in range(60)]
    fresh = problem(rng.uniform(1.0, 50.0, size=n_links), paths)
    active = rng.random(len(paths)) < 0.7
    weights = rng.uniform(0.0, 10.0, size=len(paths))

    def padded(array, step=1):
        big = np.full(step * len(array) + 10, -7, dtype=array.dtype)
        part = big[5:5 + step * len(array):step]
        part[:] = array
        return part

    sliced = FluidProblem(capacity=padded(fresh.capacity),
                          flow_links=padded(fresh.flow_links),
                          flow_ptr=padded(fresh.flow_ptr))
    strided = FluidProblem(capacity=padded(fresh.capacity, 2),
                           flow_links=padded(fresh.flow_links, 3),
                           flow_ptr=padded(fresh.flow_ptr, 2))
    replaced = dataclasses.replace(fresh)
    assert not replaced._bincount_links.flags.writeable
    for other in (sliced, strided, replaced):
        for got, want in zip(other.link_index, fresh.link_index):
            assert np.array_equal(got, want)
        assert np.array_equal(link_loads(other, weights),
                              link_loads(fresh, weights))
        assert np.array_equal(max_min_rates(other, active),
                              max_min_rates(fresh, active))
        with pytest.raises(ValueError, match="read-only"):
            other.flow_links[0] = 0


def test_a_problem_refuses_writes():
    """The index is kept across solves, so nothing it was derived from
    may change underneath it."""
    prob = problem([10.0, 20.0], [[0], [0, 1], [1]])
    max_min_rates(prob)
    for array in (prob.capacity, prob.flow_links, prob.flow_ptr,
                  prob.lengths, *prob.link_index):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    with pytest.raises(AttributeError):
        prob.capacity = np.ones(2)
