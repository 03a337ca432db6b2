"""Liveness-layer configuration.

One frozen bundle configures all three mechanisms of the adaptive
liveness layer (DESIGN §14): the link-quality estimator, the adaptive
detection-interval policy, and RFC 2439-style flap damping.  The bundle
is picklable and canonical-JSON-able, so it can ride inside a
:class:`~repro.stacks.base.StackSpec` parameter tuple and key the
result cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional, Union

from repro.sim.units import SECOND


@dataclass(frozen=True)
class LivenessConfig:
    """Tuning for the stack-agnostic neighbor-health subsystem.

    Defaults are chosen so that a *clean* link behaves byte-identically
    to the paper's timers once the estimator has warmed up (the
    detection interval tightens back to the configured base), while a
    measured-lossy link widens its detection bound inside the
    ``[base, base * max_scale]`` envelope.
    """

    # -- link-quality estimator -----------------------------------------
    #: EWMA weight for the per-arrival loss estimate.  Each implied miss
    #: folds in as a 1, each arrival as a 0.
    ewma_alpha: float = 0.1
    #: EWMA weight for the arrival-jitter estimate (|gap - k*period|).
    jitter_alpha: float = 0.2
    #: arrivals before the estimator trusts its own numbers; until then
    #: the cautious ``cold_scale`` applies.
    warmup_arrivals: int = 16
    #: hard cap on misses implied by a single gap (a long outage must
    #: not saturate the estimate in one observation).
    max_misses_per_gap: int = 16

    # -- verdict thresholds ---------------------------------------------
    #: measured loss at or above this is a *degraded* (gray) link.
    degrade_threshold: float = 0.01

    # -- adaptive detection envelope ------------------------------------
    #: master switch for detection-interval widening.
    adaptive_timers: bool = True
    #: consecutive losses tolerated even on a measured-clean link.  The
    #: first loss of a fresh gray episode is causally unobservable (the
    #: silence IS the evidence, and the dead timer would fire mid-gap),
    #: so adaptive stacks keep this floor: the detector survives a short
    #: run, the following arrival reveals the gap, and the estimator
    #: widens before a longer run can false-trip.
    clean_misses: int = 2
    #: per-declaration false-positive budget: the widened interval
    #: covers enough consecutive losses that a spurious declaration
    #: needs a loss run of probability below this.
    fp_target: float = 1e-6
    #: interval scale while the estimator is still cold.
    cold_scale: float = 3.0
    #: upper envelope: the detection interval never exceeds
    #: ``base * max_scale`` (the stack's advertised detection bound).
    max_scale: float = 8.0

    # -- RFC 2439-style flap damping ------------------------------------
    #: master switch for suppress/reuse gating.
    damping: bool = True
    #: penalty added per flap (down declaration).
    flap_penalty: float = 1000.0
    #: penalty at or above which the neighbor is suppressed.
    suppress_threshold: float = 2000.0
    #: penalty at or below which a suppressed neighbor is reusable.
    reuse_threshold: float = 750.0
    #: exponential decay half-life of the accumulated penalty.
    half_life_us: int = 2 * SECOND
    #: penalty ceiling, bounding the worst-case hold-down.
    max_penalty: float = 12_000.0

    def __post_init__(self) -> None:
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if not 0.0 < self.jitter_alpha <= 1.0:
            raise ValueError("jitter_alpha must be in (0, 1]")
        if self.warmup_arrivals < 1:
            raise ValueError("warmup_arrivals must be positive")
        if not 0.0 < self.fp_target < 1.0:
            raise ValueError("fp_target must be in (0, 1)")
        if not 0.0 < self.degrade_threshold < 1.0:
            raise ValueError("degrade_threshold must be in (0, 1)")
        if self.cold_scale < 1.0 or self.max_scale < 1.0:
            raise ValueError("interval scales must be >= 1")
        if self.clean_misses < 1:
            raise ValueError("clean_misses must be positive")
        if self.cold_scale > self.max_scale:
            raise ValueError("cold_scale must not exceed max_scale")
        if self.half_life_us <= 0:
            raise ValueError("half_life_us must be positive")
        if not 0.0 < self.reuse_threshold <= self.suppress_threshold:
            raise ValueError("need 0 < reuse_threshold <= suppress_threshold")
        if self.max_penalty < self.suppress_threshold:
            raise ValueError("max_penalty below suppress_threshold")


#: The shipped tuning the ``mtp-adaptive`` / ``bgp-bfd-damped``
#: registrations use (``liveness=True`` resolves to this).
DEFAULT_LIVENESS = LivenessConfig()


LivenessParam = Union[None, bool, Mapping[str, Any], LivenessConfig]


def resolve_liveness(value: LivenessParam) -> Optional[LivenessConfig]:
    """Normalize a stack-parameter value into a config (or None = off).

    Accepts ``True`` (defaults), ``False``/``None`` (disabled), a
    mapping of field overrides, or a ready :class:`LivenessConfig` —
    so registrations stay pure parameter tuples.
    """
    if value is None or value is False:
        return None
    if value is True:
        return DEFAULT_LIVENESS
    if isinstance(value, LivenessConfig):
        return value
    if isinstance(value, Mapping):
        return LivenessConfig(**dict(value))
    raise TypeError(f"cannot interpret liveness parameter {value!r}")
