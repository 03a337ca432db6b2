"""The bulk digest helper is ``ecmp_hash`` for many flows at once, and
``ecmp_hash``'s memo is a freshly keyed BLAKE2b."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.routing import ecmp
from repro.routing.ecmp import KEY_BYTES, FlowKey, ecmp_digests, ecmp_hash

U64 = st.integers(min_value=0, max_value=2**64 - 1)
U16 = st.integers(min_value=0, max_value=2**16 - 1)
KEYS = st.builds(FlowKey, src=U64, dst=U64, proto=U16, src_port=U16,
                 dst_port=U16)


# the extremes of the 8-byte key next to arbitrary salts
SALTS = st.one_of(st.sampled_from([0, 2**64 - 1]), U64)


def as_rows(picks: list[int], layout: str) -> np.ndarray:
    """``picks`` as the index arrays callers hand over: the engine's
    int32 ids, NumPy's default int64, or a non-contiguous int32 view."""
    if layout == "strided":
        rows = np.repeat(np.asarray(picks, dtype=np.int32), 2)[::2]
        assert len(picks) < 2 or not rows.flags.c_contiguous
        return rows
    return np.asarray(picks, dtype=layout)


@given(keys=st.lists(KEYS, min_size=1, max_size=40), salt=SALTS,
       layout=st.sampled_from(["int32", "int64", "strided"]),
       data=st.data())
def test_bulk_digests_reduce_to_ecmp_hash(keys, salt, layout, data):
    packed = b"".join(key.pack() for key in keys)
    assert len(packed) == KEY_BYTES * len(keys)
    # any subset (the empty one too), any order, repeats allowed
    picks = data.draw(st.lists(
        st.integers(min_value=0, max_value=len(keys) - 1), max_size=60))
    digests = ecmp_digests(packed, as_rows(picks, layout), salt)
    assert digests.dtype == np.uint64 and digests.shape == (len(picks),)
    for n_choices in range(2, 8):
        assert (digests % np.uint64(n_choices)).tolist() == [
            ecmp_hash(keys[row], n_choices, salt) for row in picks]


@pytest.mark.parametrize("salt", [0, 7, 2**64 - 1])
@pytest.mark.parametrize("packed", [b"", FlowKey(1, 2).pack()])
def test_no_rows_is_an_empty_uint64_array(packed, salt):
    digests = ecmp_digests(packed, np.empty(0, dtype=np.int32), salt)
    assert digests.dtype == np.uint64 and digests.shape == (0,)


def test_one_digest_serves_every_candidate_count():
    """The digest depends on key and salt only: kept while a candidate
    set shrinks 4 -> 3, it still reduces to ``ecmp_hash``."""
    keys = [FlowKey(10 + i, 99, 17, 40000 + i, 5001) for i in range(64)]
    packed = b"".join(key.pack() for key in keys)
    digests = ecmp_digests(packed, np.arange(len(keys)), salt=7)
    for n_choices in (4, 3):
        assert (digests % np.uint64(n_choices)).tolist() == [
            ecmp_hash(key, n_choices, 7) for key in keys]


def test_salts_equal_modulo_2_16_do_not_alias():
    """Salts that agree in their low 16 bits key different hashes — a
    digest cache tagged with a truncated salt would confuse them."""
    keys = [FlowKey(i, i + 1, 6, 1024 + i, 80) for i in range(64)]
    packed = b"".join(key.pack() for key in keys)
    rows = np.arange(len(keys))
    low, high = 3, 3 + 2**16
    assert not np.array_equal(ecmp_digests(packed, rows, low),
                              ecmp_digests(packed, rows, high))
    for salt in (low, high):
        assert (ecmp_digests(packed, rows, salt)
                % np.uint64(5)).tolist() == [
            ecmp_hash(key, 5, salt) for key in keys]


def fresh_hash(key: FlowKey, n_choices: int, salt: int) -> int:
    """A freshly keyed BLAKE2b per call: what ``ecmp_hash`` did before it
    memoized the digest."""
    digest = hashlib.blake2b(key.pack(), digest_size=8,
                             key=salt.to_bytes(8, "little")).digest()
    return int.from_bytes(digest, "little") % n_choices


@given(keys=st.lists(KEYS, min_size=1, max_size=20), salt=SALTS,
       n_choices=st.integers(min_value=1, max_value=64))
def test_memoized_hash_is_a_freshly_keyed_blake2b(keys, salt, n_choices):
    for key in keys + keys:  # the second pass reads the memo
        assert ecmp_hash(key, n_choices, salt) == fresh_hash(
            key, n_choices, salt)


def test_digest_memo_stays_within_its_bound():
    keys = [FlowKey(i, 99, 17, 40000, 5001)
            for i in range(ecmp.DIGEST_MEMO_SIZE + 100)]
    for salt in (0, 7):
        for key in keys:
            assert ecmp_hash(key, 3, salt) == fresh_hash(key, 3, salt)
    info = ecmp._digest.cache_info()
    assert info.maxsize == ecmp.DIGEST_MEMO_SIZE
    assert info.currsize == ecmp.DIGEST_MEMO_SIZE
