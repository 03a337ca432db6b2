"""VID table semantics: acquisition, pruning, marks, accounting."""

from __future__ import annotations

import pickle

from hypothesis import given, strategies as st

from repro.core.tables import VidTable
from repro.core.vid import Vid


def v(text):
    return Vid.parse(text)


def test_add_and_ports_for_root():
    table = VidTable()
    assert table.add("eth1", v("11.1"))
    assert table.add("eth2", v("12.1"))
    assert table.ports_for_root(11) == ["eth1"]
    assert table.ports_for_root(12) == ["eth2"]
    assert table.ports_for_root(99) == []


def test_add_duplicate_is_noop():
    table = VidTable()
    table.add("eth1", v("11.1"))
    count = table.change_count
    assert not table.add("eth1", v("11.1"))
    assert table.change_count == count


def test_multiple_ports_same_root():
    """A top spine in a multi-ToR pod reaches a root via one port, but a
    root can appear on several ports in wider topologies."""
    table = VidTable()
    table.add("eth1", v("11.1.1"))
    table.add("eth2", v("11.2.1"))
    assert table.ports_for_root(11) == ["eth1", "eth2"]


def test_prune_port_removes_everything_on_it():
    table = VidTable()
    table.add("eth1", v("11.1"))
    table.add("eth1", v("12.1"))
    table.add("eth2", v("11.2"))
    pruned = table.prune_port("eth1")
    assert [str(x) for x in pruned] == ["11.1", "12.1"]
    assert table.ports_for_root(11) == ["eth2"]
    assert table.prune_port("eth1") == []


def test_prune_extensions_is_subtree_scoped():
    """An UPDATE_LOST for 11.1 prunes 11.1.* but not 11.2.* or 12.*."""
    table = VidTable()
    table.add("eth1", v("11.1.1"))
    table.add("eth1", v("11.2.1"))
    table.add("eth1", v("12.1.1"))
    doomed = table.prune_extensions("eth1", [v("11.1")])
    assert [str(x) for x in doomed] == ["11.1.1"]
    assert sorted(str(x) for x in table.all_vids()) == ["11.2.1", "12.1.1"]


def test_prune_extensions_no_match_no_change():
    table = VidTable()
    table.add("eth1", v("11.1.1"))
    count = table.change_count
    assert table.prune_extensions("eth1", [v("13.1")]) == []
    assert table.change_count == count


def test_marks_lifecycle():
    table = VidTable()
    assert table.mark_unreachable("eth3", [11, 12]) == [11, 12]
    assert table.mark_unreachable("eth3", [11]) == []  # already marked
    assert table.is_marked("eth3", 11)
    assert not table.is_marked("eth4", 11)
    assert table.clear_marks("eth3", [11]) == [11]
    assert not table.is_marked("eth3", 11)
    assert table.is_marked("eth3", 12)
    assert table.clear_marks("eth3") == [12]


def test_change_counting_for_blast_radius():
    table = VidTable()
    c0 = table.change_count
    table.add("eth1", v("11.1"))
    table.mark_unreachable("eth2", [13])
    table.clear_marks("eth2", [13])
    assert table.change_count == c0 + 3
    # no-ops do not count
    table.clear_marks("eth2", [13])
    assert table.change_count == c0 + 3


def test_roots_and_entry_count():
    table = VidTable()
    table.add("eth1", v("11.1"))
    table.add("eth1", v("12.1"))
    table.add("eth2", v("13.1"))
    assert table.roots() == {11, 12, 13}
    assert table.roots_on("eth1") == {11, 12}
    assert table.entry_count() == 3


def test_render_matches_listing5_shape():
    table = VidTable()
    table.add("eth2", v("37.1.1"))
    table.add("eth2", v("38.1.1"))
    table.add("eth4", v("39.1.1"))
    text = table.render()
    assert "eth2   37.1.1, 38.1.1" in text
    assert "eth4   39.1.1" in text


def test_memory_bytes_scales():
    table = VidTable()
    table.add("eth1", v("11.1"))
    one = table.memory_bytes()
    table.add("eth1", v("11.1.2"))
    assert table.memory_bytes() > one


def test_change_timestamps():
    from repro.sim.engine import Simulator

    sim = Simulator()
    table = VidTable(sim=sim)
    sim.schedule_at(777, lambda: table.add("eth1", v("11.1")))
    sim.run()
    assert table.last_change_time == 777


class TestDefaultMarks:
    def test_default_mark_blocks_all_but_exceptions(self):
        table = VidTable()
        assert table.set_default_mark("eth3", {11, 12})
        assert not table.is_marked("eth3", 11)
        assert not table.is_marked("eth3", 12)
        assert table.is_marked("eth3", 13)
        assert table.is_marked("eth3", 99)
        assert not table.is_marked("eth4", 13)

    def test_explicit_mark_overrides_exception(self):
        table = VidTable()
        table.set_default_mark("eth3", {11})
        table.mark_unreachable("eth3", [11])
        assert table.is_marked("eth3", 11)

    def test_set_same_mark_is_noop(self):
        table = VidTable()
        table.set_default_mark("eth3", {11})
        count = table.change_count
        assert not table.set_default_mark("eth3", {11})
        assert table.change_count == count
        assert table.set_default_mark("eth3", {11, 12})
        assert table.change_count == count + 1

    def test_clear_default_mark(self):
        table = VidTable()
        table.set_default_mark("eth3", set())
        assert table.has_default_mark("eth3")
        assert table.clear_default_mark("eth3")
        assert not table.clear_default_mark("eth3")
        assert not table.is_marked("eth3", 13)

    def test_render_shows_default_marks(self):
        table = VidTable()
        table.set_default_mark("eth3", {11, 12})
        table.set_default_mark("eth4", set())
        text = table.render()
        assert "eth3   default-unreachable (except 11, 12)" in text
        assert "eth4   default-unreachable" in text

    def test_exceptions_accessor(self):
        table = VidTable()
        assert table.default_exceptions("eth3") is None
        table.set_default_mark("eth3", {11})
        assert table.default_exceptions("eth3") == {11}


# ----------------------------------------------------------------------
# the root index against the scan it replaced
# ----------------------------------------------------------------------
# few ports, roots and components, so steps keep hitting what earlier
# steps added: a root VID is a parent of every VID of its root
ROOTS = (11, 12)
PORTS = st.sampled_from(["eth1", "eth2"])
VIDS = st.builds(lambda root, tail: Vid((root, *tail)),
                 st.sampled_from(ROOTS),
                 st.lists(st.integers(min_value=1, max_value=2), max_size=2))
STEPS = st.one_of(
    st.tuples(st.just("add"), PORTS, VIDS),
    st.tuples(st.just("remove"), PORTS, VIDS),
    st.tuples(st.just("remove_held"), st.integers(min_value=0, max_value=9)),
    st.tuples(st.just("prune_port"), PORTS),
    st.tuples(st.just("prune_extensions"), PORTS,
              st.lists(VIDS, min_size=1, max_size=2)),
    st.tuples(st.just("clear")),
    st.tuples(st.just("pickle")),
)


def scanned_ports_for_root(table: VidTable, root: int) -> list[str]:
    """``ports_for_root`` as a scan of every port's VIDs (the definition
    before the table kept a root index)."""
    return sorted({port for port, vid in table.entries() if vid.root == root})


@given(st.lists(STEPS, max_size=40))
def test_root_index_matches_the_scan_after_every_step(steps):
    table = VidTable()
    for op, *args in steps:
        if op == "pickle":
            table = pickle.loads(pickle.dumps(table))
        elif op == "remove_held":  # one of the entries held, if any
            held = table.entries()
            if held:
                table.remove(*held[args[0] % len(held)])
        else:
            getattr(table, op)(*args)
        for root in ROOTS:
            assert table.ports_for_root(root) == scanned_ports_for_root(
                table, root)
        assert table.roots() == {vid.root for _, vid in table.entries()}
