"""Unit and property tests for integer-math helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.util.intlog import (
    ceil_div,
    chunk_offsets,
    ilog2,
    next_multiple,
    next_power_of_two,
    split_evenly,
)


class TestCeilDiv:
    def test_exact(self):
        assert ceil_div(12, 4) == 3

    def test_rounds_up(self):
        assert ceil_div(13, 4) == 4

    def test_zero_numerator(self):
        assert ceil_div(0, 5) == 0

    def test_rejects_zero_divisor(self):
        with pytest.raises(ValueError):
            ceil_div(1, 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ceil_div(-1, 2)

    @given(st.integers(0, 10**9), st.integers(1, 10**6))
    def test_matches_float_ceil(self, a, b):
        assert ceil_div(a, b) == -(-a // b)
        assert (ceil_div(a, b) - 1) * b < a or a == 0


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

    def test_ilog2(self):
        assert ilog2(1) == 0
        assert ilog2(2) == 1
        assert ilog2(255) == 7
        assert ilog2(256) == 8

    def test_ilog2_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ilog2(0)


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


class TestNextMultiple:
    def test_basic(self):
        assert next_multiple(10, 4) == 12
        assert next_multiple(12, 4) == 12
        assert next_multiple(0, 4) == 4

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            next_multiple(5, 0)
