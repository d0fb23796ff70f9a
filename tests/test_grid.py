"""Tests for processor grids and the 2.5D factorization helper."""

import numpy as np
import pytest

from repro.bsp import BSPMachine, RankGroup
from repro.dist.grid import ProcGrid, factor_2p5d


class TestFactor2p5d:
    def test_delta_half_gives_c1(self):
        assert factor_2p5d(16, 0.5) == (4, 1)
        assert factor_2p5d(64, 0.5) == (8, 1)

    def test_delta_two_thirds_gives_cube(self):
        assert factor_2p5d(64, 2.0 / 3.0) == (4, 4)
        assert factor_2p5d(8, 2.0 / 3.0) == (2, 2)

    def test_product_is_p(self):
        for p in (1, 4, 8, 16, 36, 64, 128, 256):
            q, c = factor_2p5d(p, 0.6)
            assert q * q * c == p

    def test_rejects_delta_out_of_range(self):
        with pytest.raises(ValueError):
            factor_2p5d(16, 0.8)

    def test_prime_p_falls_back_to_degenerate_grid(self):
        # Every p admits at least the q=1, c=p factorization.
        assert factor_2p5d(7, 0.5) == (1, 7)


class TestProcGrid:
    def test_rank_at_row_major(self):
        m = BSPMachine(12)
        g = ProcGrid(m, (3, 4))
        assert g.rank_at(0, 0) == 0
        assert g.rank_at(0, 3) == 3
        assert g.rank_at(2, 3) == 11

    def test_rank_at_validates(self):
        m = BSPMachine(4)
        g = ProcGrid(m, (2, 2))
        with pytest.raises(ValueError):
            g.rank_at(2, 0)
        with pytest.raises(ValueError):
            g.rank_at(0)

    def test_custom_rank_set(self):
        m = BSPMachine(8)
        g = ProcGrid(m, (2, 2), RankGroup((4, 5, 6, 7)))
        assert g.rank_at(1, 1) == 7

    def test_size_mismatch_rejected(self):
        m = BSPMachine(8)
        with pytest.raises(ValueError):
            ProcGrid(m, (3, 3))  # needs 9 > 8 ranks

    def test_subgrid(self):
        m = BSPMachine(16)
        g = ProcGrid(m, (2, 2, 4))
        sub = g.subgrid(slice(0, 2), slice(0, 1), slice(0, 4))
        assert sub.shape == (2, 1, 4)
        assert sub.size == 8
        assert all(r in g.group() for r in sub.group())
