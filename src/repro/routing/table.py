"""Longest-prefix-match routing table with ECMP next-hop sets.

This is the "kernel FIB" each node consults on the BGP data path.  It
tracks a change counter and timestamps so the harness can compute the
paper's blast radius ("the number of routers that updated their routing
tables subsequent to a topology change") without instrumenting protocol
internals.  Every change also bumps the world's forwarding version
(:meth:`repro.sim.engine.Simulator.note_forwarding_change`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.stack.addresses import Ipv4Address, Ipv4Network
from repro.routing.ecmp import FlowKey, ecmp_hash


@dataclass(frozen=True)
class NextHop:
    """A forwarding choice: out this interface, optionally via a gateway.

    ``via`` is None for connected routes (deliver on-subnet).
    """

    interface: str
    via: Optional[Ipv4Address] = None

    def __str__(self) -> str:
        if self.via is None:
            return f"dev {self.interface}"
        return f"via {self.via} dev {self.interface}"


@dataclass
class Route:
    prefix: Ipv4Network
    nexthops: tuple[NextHop, ...]
    proto: str = "static"      # "connected" | "static" | "bgp" | ...
    metric: int = 0

    def __post_init__(self) -> None:
        if not self.nexthops:
            raise ValueError(f"route to {self.prefix} with no nexthops")

    def render(self) -> str:
        """`ip route`-style rendering (the paper's Listing 3 format)."""
        head = f"{self.prefix} proto {self.proto} metric {self.metric}"
        if len(self.nexthops) == 1:
            return f"{head} {self.nexthops[0]}"
        lines = [head]
        for nh in self.nexthops:
            lines.append(f"    nexthop {nh} weight 1")
        return "\n".join(lines)


class RoutingTable:
    """LPM table keyed by (prefix).  One route per prefix; ECMP is a
    multi-nexthop route, as in the Linux FIB."""

    def __init__(self, name: str = "", sim=None, salt: int = 0) -> None:
        self.name = name
        self.sim = sim  # optional: timestamps for change tracking
        self.salt = salt
        self._routes: dict[Ipv4Network, Route] = {}
        # LPM index over the same routes: prefix length -> (mask,
        # {network address as int: route}), kept in step with _routes
        # by _index/_unindex, and the non-empty buckets longest first.
        self._buckets: dict[int, tuple[int, dict[int, Route]]] = {}
        self._lpm: list[tuple[int, dict[int, Route]]] = []
        self.change_count = 0
        self.last_change_time: Optional[int] = None
        # optional gray-failure depreference hook (DESIGN §14): a
        # predicate ``interface name -> bool`` marking next hops to
        # avoid.  ECMP then hashes over the unbiased subset when one
        # exists — the route itself stays installed (no churn).
        self.nexthop_bias: Optional[Callable[[str], bool]] = None

    # ------------------------------------------------------------------
    def _note_change(self) -> None:
        self.change_count += 1
        if self.sim is not None:
            self.last_change_time = self.sim.now
            self.sim.note_forwarding_change()

    def _index(self, route: Route) -> None:
        prefix = route.prefix
        bucket = self._buckets.get(prefix.prefix_len)
        if bucket is None:
            bucket = self._buckets[prefix.prefix_len] = (prefix.mask, {})
            self._order_buckets()
        bucket[1][prefix.address.value] = route

    def _unindex(self, prefix: Ipv4Network) -> None:
        by_address = self._buckets[prefix.prefix_len][1]
        del by_address[prefix.address.value]
        if not by_address:
            del self._buckets[prefix.prefix_len]
            self._order_buckets()

    def _order_buckets(self) -> None:
        """Only when a prefix length appears or its last route goes."""
        self._lpm = [self._buckets[length]
                     for length in sorted(self._buckets, reverse=True)]

    # ------------------------------------------------------------------
    def install(self, route: Route) -> None:
        """Insert or replace the route for ``route.prefix``.  A replace
        with identical content is a no-op (no spurious blast-radius hit)."""
        existing = self._routes.get(route.prefix)
        if existing is not None and (
            existing.nexthops == route.nexthops
            and existing.proto == route.proto
            and existing.metric == route.metric
        ):
            return
        self._routes[route.prefix] = route
        self._index(route)
        self._note_change()

    def withdraw(self, prefix: Ipv4Network) -> bool:
        """Remove the route for ``prefix``; True if something was removed."""
        if prefix in self._routes:
            del self._routes[prefix]
            self._unindex(prefix)
            self._note_change()
            return True
        return False

    def flush_proto(self, proto: str) -> list[Ipv4Network]:
        """Remove every route learned from ``proto`` *in place* (the
        table object survives: a cold boot wipes state, not identity, so
        change counters stay monotonic and holders keep their reference).
        Returns the withdrawn prefixes."""
        doomed = [p for p, r in self._routes.items() if r.proto == proto]
        for prefix in doomed:
            del self._routes[prefix]
            self._unindex(prefix)
        if doomed:
            self._note_change()
        return doomed

    def get(self, prefix: Ipv4Network) -> Optional[Route]:
        return self._routes.get(prefix)

    def routes(self) -> list[Route]:
        return sorted(self._routes.values(), key=lambda r: r.prefix)

    def __len__(self) -> int:
        return len(self._routes)

    def __contains__(self, prefix: Ipv4Network) -> bool:
        return prefix in self._routes

    # ------------------------------------------------------------------
    def lookup(self, dst: Ipv4Address) -> Optional[Route]:
        """Longest-prefix match: mask arithmetic on the integer address,
        one dict probe per prefix length present."""
        value = dst.value
        for mask, by_address in self._lpm:
            route = by_address.get(value & mask)
            if route is not None:
                return route
        return None

    def select_nexthop(self, dst: Ipv4Address, flow: FlowKey) -> Optional[NextHop]:
        """LPM + ECMP hash over the matched route's next hops."""
        route = self.lookup(dst)
        if route is None:
            return None
        nexthops = self.usable_nexthops(route)
        index = ecmp_hash(flow, len(nexthops), salt=self.salt)
        return nexthops[index]

    def usable_nexthops(self, route: Route) -> tuple[NextHop, ...]:
        """The next-hop set ECMP actually hashes over: the installed set
        minus biased-against (degraded) interfaces, unless that would
        empty it — a degraded path still beats no path."""
        if self.nexthop_bias is None or len(route.nexthops) < 2:
            return route.nexthops
        bias = self.nexthop_bias
        preferred = tuple(nh for nh in route.nexthops
                          if not bias(nh.interface))
        if preferred and len(preferred) < len(route.nexthops):
            return preferred
        return route.nexthops

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Full `ip route`-style dump (Listing 3)."""
        return "\n".join(route.render() for route in self.routes())

    def memory_bytes(self) -> int:
        """Rough storage cost: 8 B per prefix + 12 B per next hop — the
        'storage needs' comparison in the paper's section VII.H."""
        return sum(8 + 12 * len(r.nexthops) for r in self._routes.values())
