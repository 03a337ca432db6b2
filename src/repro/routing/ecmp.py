"""ECMP flow hashing.

Deterministic per-flow next-hop selection over the classic 5-tuple, with a
per-node salt so different routers spread the same flow differently (as
independent hardware hash seeds do).  Both the kernel-style FIB under BGP
and MR-MTP's "hash algorithm to load balance traffic from a downstream
router to upstream routers" use this function, keeping the load-balancing
substrate identical across protocols — the comparison the paper makes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np


@dataclass(frozen=True)
class FlowKey:
    """The hashed 5-tuple.  Ports are 0 for non-TCP/UDP traffic."""

    src: int        # source address (IPv4 int or ToR VID ordinal)
    dst: int
    proto: int = 0
    src_port: int = 0
    dst_port: int = 0

    def pack(self) -> bytes:
        return (
            self.src.to_bytes(8, "little", signed=False)
            + self.dst.to_bytes(8, "little", signed=False)
            + self.proto.to_bytes(2, "little")
            + self.src_port.to_bytes(2, "little")
            + self.dst_port.to_bytes(2, "little")
        )


#: width of one :meth:`FlowKey.pack` record
KEY_BYTES = len(FlowKey(0, 0).pack())


def _keyed_blake2b(salt: int):
    """The hash every ECMP decision uses: blake2b, 64-bit digest, keyed
    with the node's salt as 8 little-endian bytes."""
    return partial(hashlib.blake2b, digest_size=8,
                   key=salt.to_bytes(8, "little", signed=False))


#: most (flow key, salt) digests :func:`ecmp_hash` remembers
DIGEST_MEMO_SIZE = 4096


@lru_cache(maxsize=DIGEST_MEMO_SIZE)
def _digest(key: FlowKey, salt: int) -> int:
    return int.from_bytes(_keyed_blake2b(salt)(key.pack()).digest(), "little")


def ecmp_hash(key: FlowKey, n_choices: int, salt: int = 0) -> int:
    """Map a flow onto one of ``n_choices`` next hops.

    A *keyed* hash (blake2b with the salt as key), not a CRC: linear
    hashes make per-node salts mere XOR offsets of each other, so every
    flow that hashed left at tier N would hash the same way at tier N+1
    — the classic ECMP-polarization pathology, which real switches avoid
    exactly this way (per-device hash seeds feeding a non-linear hash).

    The digest is a pure function of key and salt, so it is memoized
    (every packet of a flow hashes again at every hop), for the
    :data:`DIGEST_MEMO_SIZE` most recent of them.
    """
    if n_choices <= 0:
        raise ValueError("n_choices must be positive")
    if n_choices == 1:
        return 0
    return _digest(key, salt) % n_choices


def ecmp_digests(packed_keys: bytes, rows: np.ndarray,
                 salt: int = 0) -> np.ndarray:
    """The raw 64-bit digests behind :func:`ecmp_hash` for many flows at
    one node, as ``uint64``: ``packed_keys`` is a table of concatenated
    :meth:`FlowKey.pack` records and ``rows`` picks the records to hash.
    ``ecmp_digests(...) % n_choices`` equals ``ecmp_hash`` flow by flow,
    for any ``n_choices`` — the digest depends on key and salt only, so
    a caller may keep it while the candidate set shrinks and grows.

    The salt is keyed into one hasher per call; each flow hashes its
    record into a copy of that state, which is the same digest as a
    freshly keyed hasher without parsing the key again per flow."""
    keyed = _keyed_blake2b(salt)()
    records = np.frombuffer(packed_keys, dtype=f"V{KEY_BYTES}")[rows]
    digests = []
    for record in records.tolist():
        hasher = keyed.copy()
        hasher.update(record)
        digests.append(hasher.digest())
    return np.frombuffer(b"".join(digests), dtype="<u8")
