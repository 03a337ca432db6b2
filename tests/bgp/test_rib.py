"""RIB structures and the decision process."""

from __future__ import annotations

from repro.bgp.messages import PathAttributes
from repro.bgp.rib import AdjRibIn, LocRib, RibEntry
from repro.stack.addresses import Ipv4Address, Ipv4Network


def ip(text):
    return Ipv4Address.parse(text)


def net(text):
    return Ipv4Network.parse(text)


def attrs(*path, nh="172.16.0.1"):
    return PathAttributes(as_path=tuple(path), next_hop=ip(nh))


def entry(prefix, path, peer):
    return RibEntry(net(prefix), attrs(*path), ip(peer) if peer else None)


class TestAdjRibIn:
    def test_set_remove(self):
        rib = AdjRibIn()
        rib.set(ip("1.1.1.1"), net("10.0.0.0/8"), attrs(1, 2))
        assert len(rib.candidates(net("10.0.0.0/8"))) == 1
        assert rib.remove(ip("1.1.1.1"), net("10.0.0.0/8"))
        assert not rib.remove(ip("1.1.1.1"), net("10.0.0.0/8"))
        assert rib.candidates(net("10.0.0.0/8")) == []

    def test_remove_peer_returns_prefixes(self):
        rib = AdjRibIn()
        rib.set(ip("1.1.1.1"), net("10.0.0.0/8"), attrs(1))
        rib.set(ip("1.1.1.1"), net("11.0.0.0/8"), attrs(1))
        rib.set(ip("2.2.2.2"), net("10.0.0.0/8"), attrs(2))
        gone = rib.remove_peer(ip("1.1.1.1"))
        assert sorted(str(p) for p in gone) == ["10.0.0.0/8", "11.0.0.0/8"]
        assert rib.entry_count() == 1

    def test_candidates_across_peers(self):
        rib = AdjRibIn()
        rib.set(ip("1.1.1.1"), net("10.0.0.0/8"), attrs(1))
        rib.set(ip("2.2.2.2"), net("10.0.0.0/8"), attrs(2, 3))
        cands = rib.candidates(net("10.0.0.0/8"))
        assert {c.path_len for c in cands} == {1, 2}


class TestDecision:
    def test_shortest_as_path_wins(self):
        rib = LocRib(multipath=True)
        chosen = rib.decide(net("10.0.0.0/8"), [
            entry("10.0.0.0/8", (1, 2, 3), "2.2.2.2"),
            entry("10.0.0.0/8", (1, 2), "1.1.1.1"),
        ])
        assert len(chosen) == 1
        assert chosen[0].peer_ip == ip("1.1.1.1")

    def test_equal_length_paths_form_ecmp_set(self):
        rib = LocRib(multipath=True)
        chosen = rib.decide(net("10.0.0.0/8"), [
            entry("10.0.0.0/8", (1, 2), "2.2.2.2"),
            entry("10.0.0.0/8", (9, 8), "1.1.1.1"),
        ])
        assert len(chosen) == 2
        # deterministic ordering: lowest neighbor first
        assert chosen[0].peer_ip == ip("1.1.1.1")

    def test_multipath_disabled_keeps_single_best(self):
        rib = LocRib(multipath=False)
        chosen = rib.decide(net("10.0.0.0/8"), [
            entry("10.0.0.0/8", (1, 2), "2.2.2.2"),
            entry("10.0.0.0/8", (9, 8), "1.1.1.1"),
        ])
        assert len(chosen) == 1

    def test_local_route_beats_any_learned_route(self):
        rib = LocRib()
        chosen = rib.decide(net("10.0.0.0/8"), [
            entry("10.0.0.0/8", (1,), "2.2.2.2"),
            entry("10.0.0.0/8", (), None),  # locally originated
        ])
        assert len(chosen) == 1 and chosen[0].is_local

    def test_empty_candidates_clears_prefix(self):
        rib = LocRib()
        rib.decide(net("10.0.0.0/8"), [entry("10.0.0.0/8", (1,), "1.1.1.1")])
        assert rib.best(net("10.0.0.0/8")) is not None
        rib.decide(net("10.0.0.0/8"), [])
        assert rib.best(net("10.0.0.0/8")) is None
        assert len(rib) == 0

    def test_prefix_listing_sorted(self):
        rib = LocRib()
        rib.decide(net("11.0.0.0/8"), [entry("11.0.0.0/8", (1,), "1.1.1.1")])
        rib.decide(net("10.0.0.0/8"), [entry("10.0.0.0/8", (1,), "1.1.1.1")])
        assert [str(p) for p in rib.prefixes()] == ["10.0.0.0/8", "11.0.0.0/8"]


class TestPathAttributes:
    def test_prepend(self):
        a = attrs(2, 3)
        b = a.prepend(1, ip("9.9.9.9"))
        assert b.as_path == (1, 2, 3)
        assert b.next_hop == ip("9.9.9.9")
        assert a.as_path == (2, 3)  # immutable

    def test_contains_as(self):
        assert attrs(1, 2, 3).contains_as(2)
        assert not attrs(1, 2, 3).contains_as(4)

    def test_hash_is_the_dataclass_hash(self):
        """Hashed without the next hop's own call, to the value a frozen
        dataclass gives: UPDATE packing groups by it."""
        a = attrs(64512, 65001).prepend(64513, ip("10.1.2.3"))
        assert hash(a) == hash((a.as_path, a.next_hop, a.origin))
        assert {a: 1}[attrs(64512, 65001).prepend(64513, ip("10.1.2.3"))] == 1
