"""Online forwarding-invariant monitor: loops and blackholes, timed.

At every route-change epoch the fluid workload engine observes (and at
the fault boundaries the scenario compiler schedules), the monitor reads
the exact rack-pair verdict of :func:`repro.harness.oracle.pair_verdicts`
— every ECMP choice of the deployed stack's *live* forwarding state —
and keeps two kinds of anomaly:

* **loop** — some ECMP choice sequence from the source ToR circulates;
* **blackhole** — some choice sequence drops *while the reachability
  oracle says a valley-free path exists over the alive links*.
  Dropping traffic the physics genuinely cannot deliver is correct
  behaviour, not an anomaly.

Consecutive checks stitch per-pair anomalies into
:class:`AnomalyEpisode` records with start/duration, so a restart
scenario yields "the fabric looped for 0 us and blackholed ToR1->ToR3
for 212 ms" rather than a boolean.  The monitor is deliberately silent
(no trace records, no RNG draws, no scheduled events of its own): runs
that never see an anomaly keep byte-identical digests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.oracle import pair_verdicts

#: anomaly kinds
LOOP = "loop"
BLACKHOLE = "blackhole"


@dataclass
class AnomalyEpisode:
    """One contiguous per-pair anomaly: [start_us, end_us) between the
    check that first saw it and the first check that no longer did (or
    the finalize time, with ``ongoing`` set, if it never cleared)."""

    kind: str            # "loop" | "blackhole"
    src_tor: str
    dst_tor: str
    start_us: int
    end_us: int
    ongoing: bool = False

    @property
    def duration_us(self) -> int:
        return self.end_us - self.start_us

    def to_payload(self) -> list:
        return [self.kind, self.src_tor, self.dst_tor, self.start_us,
                self.end_us, int(self.ongoing)]


class InvariantMonitor:
    """Forwarding-invariant watcher bound to one deployed fabric.

    Call :meth:`check` whenever forwarding state may have changed (the
    fluid engine calls it from every epoch re-solve; the scenario
    compiler schedules extra checks around fault boundaries) and
    :meth:`finalize` once at measurement end.  Aggregates follow the
    harness's windowed-anomaly convention: counts plus the *longest*
    episode, mirroring ``max_blackhole_us``.
    """

    def __init__(self, topo, deployment) -> None:
        self.topo = topo
        self.deployment = deployment
        self.sim = topo.world.sim
        self.episodes: list[AnomalyEpisode] = []
        self.checks = 0
        self._open: dict[tuple[str, str, str], int] = {}
        self._finalized = False

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    def _agg(self, kind: str) -> tuple[int, int]:
        count = longest = 0
        for ep in self.episodes:
            if ep.kind == kind:
                count += 1
                longest = max(longest, ep.duration_us)
        return count, longest

    @property
    def loops(self) -> int:
        return self._agg(LOOP)[0]

    @property
    def loop_us(self) -> int:
        return self._agg(LOOP)[1]

    @property
    def blackholes(self) -> int:
        return self._agg(BLACKHOLE)[0]

    @property
    def blackhole_us(self) -> int:
        return self._agg(BLACKHOLE)[1]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def check(self) -> None:
        """Scan the live forwarding graph now; open/close episodes."""
        if self._finalized:
            return
        self.checks += 1
        now = self.sim.now
        current = self._scan()
        for key in current:
            self._open.setdefault(key, now)
        for key in [k for k in self._open if k not in current]:
            start = self._open.pop(key)
            self._record(key, start, now, ongoing=False)

    def finalize(self) -> None:
        """Close every still-open episode at the current time (marked
        ``ongoing``: the anomaly outlived the measurement).  Idempotent;
        episodes and aggregates are stable afterwards."""
        if self._finalized:
            return
        now = self.sim.now
        for key, start in sorted(self._open.items()):
            self._record(key, start, now, ongoing=True)
        self._open.clear()
        self._finalized = True

    def _record(self, key: tuple[str, str, str], start: int, end: int,
                ongoing: bool) -> None:
        kind, src, dst = key
        self.episodes.append(AnomalyEpisode(
            kind=kind, src_tor=src, dst_tor=dst,
            start_us=start, end_us=end, ongoing=ongoing))

    # ------------------------------------------------------------------
    # one scan: every (kind, src, dst) anomaly present right now
    # ------------------------------------------------------------------
    def _scan(self) -> set[tuple[str, str, str]]:
        anomalies: set[tuple[str, str, str]] = set()
        verdicts = pair_verdicts(self.deployment, self.topo)
        for (src, dst), verdict in verdicts.items():
            if verdict.loops:
                anomalies.add((LOOP, src, dst))
            if verdict.drops and verdict.connected:
                anomalies.add((BLACKHOLE, src, dst))
        return anomalies
