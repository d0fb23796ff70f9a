"""Tests for the per-rank LRU cache model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bsp.cache import CacheModel


class TestBasics:
    def test_compulsory_miss_then_hit(self):
        c = CacheModel(1000)
        assert c.access("a", 100) == 100
        assert c.access("a", 100) == 0

    def test_eviction_is_lru(self):
        c = CacheModel(100)
        c.access("a", 60)
        c.access("b", 40)  # fills the cache
        c.access("a", 60)  # refresh a
        c.access("c", 40)  # must evict b (LRU), not a
        assert c.access("a", 60) == 0
        assert c.access("b", 40) == 40

    def test_oversized_dataset_streams(self):
        c = CacheModel(10)
        assert c.access("huge", 100) == 100
        assert c.access("huge", 100) == 100  # never resident
        assert c.access("small", 10) == 10 and c.access("small", 10) == 0

    def test_growth_charges_only_delta(self):
        c = CacheModel(1000)
        c.access("a", 100)
        # The resident prefix is reused; only the new 100 words move.
        assert c.access("a", 200) == 100

    def test_shrink_is_a_free_subset_hit(self):
        c = CacheModel(100)
        c.access("a", 100)
        assert c.access("a", 60) == 0
        # ...and the freed capacity is actually released: b fits beside a
        assert c.access("b", 40) == 40
        assert c.access("a", 60) == 0

    def test_growth_past_capacity_streams_delta(self):
        c = CacheModel(150)
        c.access("a", 100)
        assert c.access("a", 200) == 100  # delta charged
        assert c.access("a", 200) == 200  # too big to stay resident: full stream

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            CacheModel(0)
        c = CacheModel(10)
        with pytest.raises(ValueError):
            c.access("a", -1)


class TestCapacityInvariant:
    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.floats(1, 500)),
            min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_used_never_exceeds_capacity(self, ops):
        c = CacheModel(1000)
        for key, words in ops:
            c.access(key, words)
            assert c._used <= 1000 + 1e-9

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_total_traffic_bounded_by_accesses(self, keys):
        c = CacheModel(10_000)
        total = sum(c.access(k, 100) for k in keys)
        # With ample capacity, only compulsory misses: one per distinct key.
        assert total == 100 * len(set(keys))
