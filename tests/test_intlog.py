"""Unit and property tests for integer-math helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.util.intlog import chunk_offsets, next_power_of_two, split_evenly


class TestPowersOfTwo:
    def test_next_power_of_two(self):
        assert next_power_of_two(1) == 1
        assert next_power_of_two(5) == 8
        assert next_power_of_two(8) == 8

    def test_next_power_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            next_power_of_two(0)

    @given(st.integers(1, 2**40))
    def test_next_power_properties(self, x):
        np2 = next_power_of_two(x)
        assert np2 & (np2 - 1) == 0
        assert np2 >= x
        assert np2 // 2 < x


class TestSplitEvenly:
    def test_divisible(self):
        assert split_evenly(12, 4) == [3, 3, 3, 3]

    def test_remainder_goes_first(self):
        assert split_evenly(10, 4) == [3, 3, 2, 2]

    def test_more_parts_than_items(self):
        assert split_evenly(2, 4) == [1, 1, 0, 0]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            split_evenly(5, 0)
        with pytest.raises(ValueError):
            split_evenly(-1, 2)

    @given(st.integers(0, 10**6), st.integers(1, 997))
    def test_partition_properties(self, n, parts):
        sizes = split_evenly(n, parts)
        assert sum(sizes) == n
        assert len(sizes) == parts
        assert max(sizes) - min(sizes) <= 1

    def test_chunk_offsets(self):
        assert chunk_offsets([3, 3, 2, 2]) == [0, 3, 6, 8]
        assert chunk_offsets([]) == []
