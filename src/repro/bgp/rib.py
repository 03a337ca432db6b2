"""BGP RIBs and the decision process.

Adj-RIB-In per peer, a Loc-RIB of chosen paths per prefix, and the
decision rule the datacenter profile reduces to: locally originated
routes win; otherwise shortest AS path; with multipath-relax all
equal-length paths are kept for ECMP and the tie-break (lowest neighbor
address) orders the set deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.stack.addresses import Ipv4Address, Ipv4Network
from repro.bgp.messages import PathAttributes


@dataclass(frozen=True)
class RibEntry:
    """One candidate path for a prefix.  ``peer_ip`` is None for locally
    originated networks."""

    prefix: Ipv4Network
    attributes: PathAttributes
    peer_ip: Optional[Ipv4Address]

    @property
    def is_local(self) -> bool:
        return self.peer_ip is None

    @property
    def path_len(self) -> int:
        return len(self.attributes.as_path)


class AdjRibIn:
    """Routes received from each peer, keyed (peer_ip, prefix).

    Stale marking (RFC 4724 helper mode): when a peer's session dies
    under graceful restart, its routes are *marked* rather than purged —
    they keep feeding the decision process while the restart timer runs.
    A fresh advertisement clears the mark per prefix; :meth:`sweep_stale`
    purges whatever was never refreshed (timer expiry, or the
    End-of-RIB marking the refresh complete).
    """

    def __init__(self) -> None:
        self._by_peer: dict[Ipv4Address, dict[Ipv4Network, PathAttributes]] = {}
        self._stale: dict[Ipv4Address, set[Ipv4Network]] = {}

    def set(self, peer: Ipv4Address, prefix: Ipv4Network, attrs: PathAttributes) -> None:
        self._by_peer.setdefault(peer, {})[prefix] = attrs
        stale = self._stale.get(peer)
        if stale is not None:
            stale.discard(prefix)

    def mark_peer_stale(self, peer: Ipv4Address) -> int:
        """Mark every route from ``peer`` stale; returns how many."""
        routes = self._by_peer.get(peer)
        if not routes:
            return 0
        self._stale[peer] = set(routes)
        return len(routes)

    def stale_prefixes(self, peer: Ipv4Address) -> list[Ipv4Network]:
        return sorted(self._stale.get(peer, ()))

    def sweep_stale(self, peer: Ipv4Address) -> list[Ipv4Network]:
        """Purge the peer's still-stale routes; returns the affected
        prefixes (each needs a fresh decision)."""
        stale = self._stale.pop(peer, None)
        if not stale:
            return []
        routes = self._by_peer.get(peer, {})
        swept = []
        for prefix in stale:
            if prefix in routes:
                del routes[prefix]
                swept.append(prefix)
        if not routes:
            self._by_peer.pop(peer, None)
        return swept

    def remove(self, peer: Ipv4Address, prefix: Ipv4Network) -> bool:
        routes = self._by_peer.get(peer)
        if routes and prefix in routes:
            del routes[prefix]
            return True
        return False

    def remove_peer(self, peer: Ipv4Address) -> list[Ipv4Network]:
        """Purge everything from a dead peer; returns affected prefixes."""
        self._stale.pop(peer, None)
        routes = self._by_peer.pop(peer, None)
        return list(routes) if routes else []

    def candidates(self, prefix: Ipv4Network) -> list[RibEntry]:
        found = []
        for peer, routes in self._by_peer.items():
            attrs = routes.get(prefix)
            if attrs is not None:
                found.append(RibEntry(prefix, attrs, peer))
        return found

    def entry_count(self) -> int:
        return sum(len(routes) for routes in self._by_peer.values())


class LocRib:
    """Chosen (possibly multipath) entries per prefix."""

    def __init__(self, multipath: bool = True) -> None:
        self.multipath = multipath
        self._chosen: dict[Ipv4Network, tuple[RibEntry, ...]] = {}

    @staticmethod
    def _sort_key(entry: RibEntry):
        # local first, then shortest path, then lowest neighbor address
        # (is_local and path_len, inline: one call per candidate)
        peer = entry.peer_ip
        if peer is None:
            return (0, len(entry.attributes.as_path), -1)
        return (1, len(entry.attributes.as_path), peer.value)

    def decide(
        self, prefix: Ipv4Network, candidates: Iterable[RibEntry]
    ) -> tuple[RibEntry, ...]:
        """Run the decision process; store and return the chosen set."""
        ordered = sorted(candidates, key=self._sort_key)
        if not ordered:
            chosen: tuple[RibEntry, ...] = ()
        elif not self.multipath:
            chosen = (ordered[0],)
        else:
            # the entries tied with the best on (is_local, path_len)
            local = ordered[0].peer_ip is None
            length = len(ordered[0].attributes.as_path)
            chosen = tuple([
                e
                for e in ordered
                if (e.peer_ip is None) is local
                and len(e.attributes.as_path) == length
            ])
        if chosen:
            self._chosen[prefix] = chosen
        else:
            self._chosen.pop(prefix, None)
        return chosen

    def chosen(self, prefix: Ipv4Network) -> tuple[RibEntry, ...]:
        return self._chosen.get(prefix, ())

    def best(self, prefix: Ipv4Network) -> Optional[RibEntry]:
        chosen = self._chosen.get(prefix)
        return chosen[0] if chosen else None

    def prefixes(self) -> list[Ipv4Network]:
        return sorted(self._chosen)

    def __len__(self) -> int:
        return len(self._chosen)
