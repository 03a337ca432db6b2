"""The per-adjacency health monitor: estimator + damper + verdict.

One :class:`NeighborMonitor` rides along each protocol adjacency
(an MR-MTP :class:`~repro.core.neighbor.PortNeighbor`, a BFD session, a
BGP peer).  It owns the link-quality estimator and the flap damper and
derives the two decisions the protocols consume:

* :meth:`detection_interval_us` — the adaptive dead/detection interval:
  the configured base on a measured-clean link, widened on a lossy one
  so that a false declaration needs a consecutive-loss run of
  probability below ``fp_target``, always inside
  ``[base, base * max_scale]``;
* :meth:`verdict` — ``healthy | degraded | dead``: the gray-failure
  classification that lets the control plane *depreference* a degraded
  next hop instead of withdrawing it.  ``degraded`` flips only as the
  estimator is fed or reset, and each flip bumps the world's forwarding
  version (:meth:`~repro.sim.engine.Simulator.note_forwarding_change`).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Optional

from repro.liveness.config import LivenessConfig
from repro.liveness.damping import FlapDamper
from repro.liveness.estimator import LinkQualityEstimator
from repro.sim.engine import Simulator


class Verdict(Enum):
    HEALTHY = "healthy"
    DEGRADED = "degraded"   # alive, but measurably lossy (gray)
    DEAD = "dead"           # the liveness state machine declared it down


class NeighborMonitor:
    """Health state for one adjacency, fed by its liveness frames."""

    def __init__(
        self,
        config: LivenessConfig,
        period_us: int,
        base_detection_us: int,
        sim: Optional[Simulator] = None,
        slack_periods: int = 0,
    ) -> None:
        self.config = config
        self.period_us = int(period_us)
        self.base_detection_us = int(base_detection_us)
        self.estimator = LinkQualityEstimator(period_us, config,
                                              slack_periods=slack_periods)
        self.damper = FlapDamper(config, 0 if sim is None else sim.now)
        self.alive = True
        # the gray verdict, kept in step with the estimator: a flip is a
        # forwarding change (depreference moves traffic off the link)
        self.sim = sim
        self.degraded = False

    # ------------------------------------------------------------------
    # estimator feed-through
    # ------------------------------------------------------------------
    def observe(self, now_us: int, period_us: Optional[int] = None) -> None:
        self.estimator.observe(now_us, period_us)
        self.alive = True
        self._reclassify()

    def interrupt(self) -> None:
        self.estimator.interrupt()
        self.alive = False

    def record_flap(self, now_us: int) -> None:
        self.damper.record_flap(now_us)

    def suppressed(self, now_us: int) -> bool:
        return (self.config.damping and self.damper.suppressed(now_us))

    def reuse_eta_us(self, now_us: int) -> int:
        return self.damper.reuse_eta_us(now_us)

    def clear_history(self) -> None:
        """Impairment cleared: forget measured loss AND accumulated
        damping penalty, so the repaired link re-converges without a
        stale suppression window."""
        self.estimator.reset()
        self.damper.reset()
        self._reclassify()

    # ------------------------------------------------------------------
    # the two decisions
    # ------------------------------------------------------------------
    def _reclassify(self) -> None:
        est = self.estimator
        degraded = (est.warmed_up
                    and est.loss_rate >= self.config.degrade_threshold)
        if degraded != self.degraded:
            self.degraded = degraded
            if self.sim is not None:
                self.sim.note_forwarding_change()

    def verdict(self) -> Verdict:
        if not self.alive:
            return Verdict.DEAD
        return Verdict.DEGRADED if self.degraded else Verdict.HEALTHY

    def detection_interval_us(
        self,
        base_us: Optional[int] = None,
        period_us: Optional[int] = None,
    ) -> int:
        """The adaptive detection interval.

        A declaration fires after this much silence, i.e. after roughly
        ``interval / period`` consecutive losses on a healthy link.  We
        size that run so its probability under the *measured* loss rate
        stays below ``fp_target``: ``m = ceil(ln fp_target / ln loss)``
        misses tolerated, plus a half-period boundary pad and jitter
        margin.  Even measured-clean links tolerate ``clean_misses``
        (the first losses of a fresh gray episode are unobservable until
        the next arrival reveals the gap); cold-and-lossy links get the
        cautious ``cold_scale``; the envelope caps everything at
        ``base * max_scale``.
        """
        cfg = self.config
        base = self.base_detection_us if base_us is None else int(base_us)
        if not cfg.adaptive_timers:
            return base
        period = self.period_us if period_us is None else max(1, int(period_us))
        ceiling = int(base * cfg.max_scale)
        est = self.estimator
        loss = est.loss_rate
        # deterministic clean-link floor: survive clean_misses back-to-
        # back losses (no jitter term — it must not drift with history)
        floor = (cfg.clean_misses + 1) * period + period // 2
        if loss <= 0.0:
            return max(base, min(floor, ceiling))
        if not est.warmed_up:
            # lossy AND too few samples to size the interval: be cautious
            scaled = int(base * cfg.cold_scale)
            return max(base, min(max(scaled, floor), ceiling))
        # tolerate m consecutive misses where loss^m < fp_target
        misses = max(cfg.clean_misses,
                     math.ceil(math.log(cfg.fp_target)
                               / math.log(min(loss, 0.9))))
        needed = (misses + 1) * period + period // 2 + 3 * int(est.jitter_us)
        return max(base, min(needed, ceiling))
