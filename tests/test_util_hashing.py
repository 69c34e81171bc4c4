"""Unit tests for hashing primitives and the consistent-hash ring."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.hashing import (
    ConsistentHashRing,
    fingerprint,
    hash64,
    hash64_raw,
    hash_pair,
    prefix_hash42,
)


def test_hash64_deterministic():
    assert hash64(b"hello") == hash64(b"hello")
    assert hash64(b"hello", 1) != hash64(b"hello", 2)


def test_hash64_sensitivity():
    # Single-byte perturbations must change the hash.
    base = hash64(b"abcdefgh")
    for i in range(8):
        mutated = bytearray(b"abcdefgh")
        mutated[i] ^= 1
        assert hash64(bytes(mutated)) != base


@given(st.binary(min_size=0, max_size=64))
def test_hash64_range(data):
    assert 0 <= hash64(data) < (1 << 64)


def test_hash_pair_independent():
    h1, h2 = hash_pair(b"key")
    assert h1 != h2


@given(st.binary(min_size=1, max_size=40),
       st.integers(min_value=1, max_value=62))
def test_fingerprint_nonzero_and_in_range(data, bits):
    fp = fingerprint(data, bits)
    assert 1 <= fp < (1 << bits)


def test_fingerprint_rejects_bad_width():
    with pytest.raises(ValueError):
        fingerprint(b"x", 0)
    with pytest.raises(ValueError):
        fingerprint(b"x", 63)


def test_fingerprint_distribution():
    # 12-bit fingerprints over many keys should cover most of the space.
    values = {fingerprint(f"k{i}".encode(), 12) for i in range(20_000)}
    assert len(values) > 3_500


@given(st.binary(min_size=0, max_size=64))
def test_prefix_hash42_range(data):
    assert 0 <= prefix_hash42(data) < (1 << 42)


def test_ring_lookup_stable():
    ring = ConsistentHashRing([0, 1, 2])
    assert ring.lookup(b"abc") == ring.lookup(b"abc")
    # The unmemoised hash places exactly where the memoised one does.
    assert all(ring.lookup(b"k%d" % i, hash64_raw) == ring.lookup(b"k%d" % i)
               for i in range(500))


def test_ring_covers_all_members():
    ring = ConsistentHashRing([0, 1, 2], vnodes=64)
    owners = {ring.lookup(f"key{i}".encode()) for i in range(5_000)}
    assert owners == {0, 1, 2}


def test_ring_balance():
    ring = ConsistentHashRing([0, 1, 2], vnodes=128)
    counts = {0: 0, 1: 0, 2: 0}
    n = 30_000
    for i in range(n):
        counts[ring.lookup(f"key{i}".encode())] += 1
    for owner, count in counts.items():
        assert 0.15 < count / n < 0.55, (owner, count)


def test_ring_requires_members():
    with pytest.raises(ValueError):
        ConsistentHashRing([])


def test_ring_lookup_int():
    ring = ConsistentHashRing([0, 1, 2])
    assert ring.lookup_int(42) in (0, 1, 2)
