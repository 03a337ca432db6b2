"""The VID table (the paper's routing state) and up-port marks.

A node's VID table holds the VIDs it acquired, keyed by the port of
acquisition — exactly Listing 5's shape (``eth2: 37.1.1, 38.1.1``).  The
*marks* set records upstream ports a received UNREACHABLE update declared
unusable for specific roots — the "record that a certain port cannot be
used for traffic destined to VID 11" state of section VII.B.

Change accounting mirrors :class:`repro.routing.table.RoutingTable` so
the harness computes blast radius identically for both protocols.

The table also keeps a root index (root -> {port: VIDs of that root
acquired there}), which only its own mutators write, so the forwarding
decision's "which ports hold this root" is a lookup, not a scan.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.vid import Vid


class VidTable:
    """Acquired VIDs by port + unusable-root marks by port."""

    def __init__(self, name: str = "", sim=None) -> None:
        self.name = name
        self.sim = sim
        self._by_port: dict[str, set[Vid]] = {}
        self._root_ports: dict[int, dict[str, int]] = {}
        self._marks: dict[str, set[int]] = {}
        # default marks: the port's upstream lost its own default path
        # and can only serve the exception roots (double-failure case)
        self._default_marks: dict[str, frozenset[int]] = {}
        self.change_count = 0
        self.last_change_time: Optional[int] = None

    # ------------------------------------------------------------------
    def _note_change(self) -> None:
        self.change_count += 1
        if self.sim is not None:
            self.last_change_time = self.sim.now
            self.sim.note_forwarding_change()

    def _unindex(self, port: str, vids: Iterable[Vid]) -> None:
        for vid in vids:
            ports = self._root_ports[vid.root]
            ports[port] -= 1
            if not ports[port]:
                del ports[port]
                if not ports:
                    del self._root_ports[vid.root]

    # ------------------------------------------------------------------
    # acquired VIDs
    # ------------------------------------------------------------------
    def add(self, port: str, vid: Vid) -> bool:
        vids = self._by_port.setdefault(port, set())
        if vid in vids:
            return False
        vids.add(vid)
        ports = self._root_ports.setdefault(vid.root, {})
        ports[port] = ports.get(port, 0) + 1
        self._note_change()
        return True

    def remove(self, port: str, vid: Vid) -> bool:
        vids = self._by_port.get(port)
        if vids and vid in vids:
            vids.remove(vid)
            if not vids:
                del self._by_port[port]
            self._unindex(port, (vid,))
            self._note_change()
            return True
        return False

    def prune_port(self, port: str) -> list[Vid]:
        """Drop everything acquired on ``port`` (the port went down)."""
        vids = self._by_port.pop(port, None)
        if not vids:
            return []
        self._unindex(port, vids)
        self._note_change()
        return sorted(vids)

    def entries(self) -> list[tuple[str, Vid]]:
        """Every (port, vid) pair currently held — the snapshot a
        graceful restart marks stale before the tree rebuilds."""
        return sorted((port, vid)
                      for port, vids in self._by_port.items()
                      for vid in vids)

    def clear(self) -> None:
        """Cold boot: wipe acquired VIDs, marks and default marks *in
        place* (identity survives; change counters stay monotonic)."""
        if not (self._by_port or self._marks or self._default_marks):
            return
        self._by_port.clear()
        self._root_ports.clear()
        self._marks.clear()
        self._default_marks.clear()
        self._note_change()

    def prune_extensions(self, port: str, parents: Iterable[Vid]) -> list[Vid]:
        """Drop VIDs on ``port`` that descend from any of ``parents``
        (an UPDATE_LOST from the downstream neighbor)."""
        vids = self._by_port.get(port)
        if not vids:
            return []
        parents = tuple(parents)
        doomed = sorted(
            v for v in vids if any(v.is_extension_of(p) for p in parents)
        )
        if not doomed:
            return []
        vids.difference_update(doomed)
        if not vids:
            del self._by_port[port]
        self._unindex(port, doomed)
        self._note_change()
        return doomed

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def vids_on(self, port: str) -> set[Vid]:
        return set(self._by_port.get(port, ()))

    def all_vids(self) -> list[Vid]:
        return sorted(v for vids in self._by_port.values() for v in vids)

    def ports_for_root(self, root: int) -> list[str]:
        """Ports holding a VID of the given root — the down-forwarding
        choices for traffic destined to that ToR."""
        ports = self._root_ports.get(root)
        return sorted(ports) if ports else []

    def roots(self) -> set[int]:
        return set(self._root_ports)

    def roots_on(self, port: str) -> set[int]:
        return {v.root for v in self._by_port.get(port, ())}

    def entry_count(self) -> int:
        return sum(len(vids) for vids in self._by_port.values())

    # ------------------------------------------------------------------
    # marks (unusable roots per upstream port)
    # ------------------------------------------------------------------
    def mark_unreachable(self, port: str, roots: Iterable[int]) -> list[int]:
        existing = self._marks.setdefault(port, set())
        added = sorted(set(roots) - existing)
        if added:
            existing.update(added)
            self._note_change()
        return added

    def clear_marks(self, port: str, roots: Optional[Iterable[int]] = None) -> list[int]:
        existing = self._marks.get(port)
        if not existing:
            return []
        cleared = sorted(existing if roots is None else existing & set(roots))
        if cleared:
            existing.difference_update(cleared)
            if not existing:
                del self._marks[port]
            self._note_change()
        return cleared

    def is_marked(self, port: str, root: int) -> bool:
        """Unusable for ``root``: explicitly marked, or default-marked
        with ``root`` not among the exceptions."""
        if root in self._marks.get(port, ()):
            return True
        exceptions = self._default_marks.get(port)
        return exceptions is not None and root not in exceptions

    def marks_on(self, port: str) -> set[int]:
        return set(self._marks.get(port, ()))

    # ------------------------------------------------------------------
    # default marks (the double-failure extension)
    # ------------------------------------------------------------------
    def set_default_mark(self, port: str, except_roots) -> bool:
        exceptions = frozenset(except_roots)
        if self._default_marks.get(port) == exceptions:
            return False
        self._default_marks[port] = exceptions
        self._note_change()
        return True

    def clear_default_mark(self, port: str) -> bool:
        if port in self._default_marks:
            del self._default_marks[port]
            self._note_change()
            return True
        return False

    def has_default_mark(self, port: str) -> bool:
        return port in self._default_marks

    def default_exceptions(self, port: str) -> Optional[frozenset[int]]:
        return self._default_marks.get(port)

    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Storage cost: ~1 byte per VID component + 2 per port entry,
        comparable with RoutingTable.memory_bytes."""
        total = 0
        for vids in self._by_port.values():
            total += sum(2 + len(v.parts) for v in vids)
        for marked in self._marks.values():
            total += 2 * len(marked)
        return total

    def render(self) -> str:
        """Listing 5 shape: one line per port with its VIDs."""
        lines = []
        for port in sorted(self._by_port):
            vids = ", ".join(str(v) for v in sorted(self._by_port[port]))
            lines.append(f"{port:<6s} {vids}")
        for port in sorted(self._marks):
            roots = ", ".join(str(r) for r in sorted(self._marks[port]))
            lines.append(f"{port:<6s} unreachable: {roots}")
        for port in sorted(self._default_marks):
            exceptions = ", ".join(str(r) for r in
                                   sorted(self._default_marks[port]))
            lines.append(f"{port:<6s} default-unreachable"
                         + (f" (except {exceptions})" if exceptions else ""))
        return "\n".join(lines)
