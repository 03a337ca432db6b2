"""Seeded random streams.

Every consumer of randomness (per-node jitter, ECMP hash salts, traffic
timing noise) pulls a *named* stream from the registry.  Streams derive
their seed from the registry seed plus the stream name, so adding a new
consumer never perturbs the random sequence observed by existing ones —
the property that keeps multi-seed experiment batches comparable across
code revisions.
"""

from __future__ import annotations

import hashlib

import numpy as np


def uniform(rng, low: float, high: float) -> float:
    """One draw of ``rng.uniform(low, high)``, bit for bit, at under half
    the cost: NumPy's scalar ``Generator.uniform`` is ``low + (high - low)
    * next_double``, and ``rng.random()`` is that ``next_double`` without
    the argument parsing.  ``rng`` is anything with a ``random()``."""
    return low + (high - low) * rng.random()


class RngRegistry:
    """Deterministic factory of named ``numpy.random.Generator`` streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the stream for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            digest = hashlib.sha256(
                f"{self.seed}:{name}".encode("utf-8")
            ).digest()
            child_seed = int.from_bytes(digest[:8], "little")
            gen = np.random.default_rng(child_seed)
            self._streams[name] = gen
        return gen

    def __contains__(self, name: str) -> bool:
        return name in self._streams
