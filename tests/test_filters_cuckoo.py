"""Cuckoo-filter properties of the succinct filter cache, with the hotness
bit left alone: membership, no false negatives while everything fits, the
false-positive rate at the fingerprint-width ablation's geometry, and
parameter checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FilterError
from repro.filters import SuccinctFilterCache

#: 8 192 buckets of 4 slots at 12 + 1 bits per slot: the geometry
#: ``bench.figures.ablation_fingerprint_bits`` runs at 12 bits.
_ABLATION_BUDGET = 8192 * 4 * 13 // 8


def test_basic_insert_contains_delete():
    f = SuccinctFilterCache(1024)
    f.insert(b"hello")
    assert f.contains(b"hello")
    assert f.delete(b"hello")
    assert not f.delete(b"hello")
    assert f.count == 0


@given(st.sets(st.binary(min_size=1, max_size=16), min_size=1, max_size=300))
@settings(max_examples=40, deadline=None)
def test_no_false_negatives(items):
    f = SuccinctFilterCache(1 << 14)
    for item in items:
        f.insert(item)
    assert f.evictions == 0  # sized generously: all fit
    for item in items:
        assert f.contains(item)


def test_false_positive_rate_below_one_percent():
    # Paper Sec. III-B: >=10-bit fingerprints keep FP < 1 %.
    f = SuccinctFilterCache(_ABLATION_BUDGET, fp_bits=12)
    assert f.num_buckets == 8192
    for i in range(18_000):
        f.insert(f"member{i}".encode())
    fps = sum(f.contains(f"outsider{i}".encode()) for i in range(50_000))
    assert fps / 50_000 < 0.01


def test_validates_parameters():
    with pytest.raises(FilterError):
        SuccinctFilterCache(0)
    with pytest.raises(FilterError):
        SuccinctFilterCache(1024, fp_bits=1)
    with pytest.raises(FilterError):
        SuccinctFilterCache(1024, fp_bits=40)
