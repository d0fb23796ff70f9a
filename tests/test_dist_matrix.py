"""Tests for distributed dense and banded matrices (cost accounting)."""

import numpy as np
import pytest

from repro.bsp import BSPMachine, RankGroup
from repro.bsp.batch import ChargeLog
from repro.dist import DistBandMatrix, DistMatrix, ProcGrid
from repro.dist.layout import BlockRowLayout, CyclicLayout
from repro.util.matrices import random_banded_symmetric


class TestDistMatrix:
    def test_shape_layout_mismatch(self):
        m = BSPMachine(4)
        grid = ProcGrid(m, (2, 2))
        with pytest.raises(ValueError, match="match layout"):
            DistMatrix(m, np.zeros((3, 3)), CyclicLayout(grid, 4, 4))

    def test_from_global_charges_distribution(self):
        m = BSPMachine(4)
        grid = ProcGrid(m, (2, 2))
        DistMatrix.cyclic(m, np.ones((8, 8)), grid, charge_distribution=True)
        assert m.cost().W > 0
        assert m.cost().S == 1

    def test_from_global_free_by_default(self):
        m = BSPMachine(4)
        grid = ProcGrid(m, (2, 2))
        DistMatrix.cyclic(m, np.ones((8, 8)), grid)
        assert m.cost().W == 0

    def test_memory_noted(self):
        m = BSPMachine(4)
        grid = ProcGrid(m, (2, 2))
        DistMatrix.cyclic(m, np.ones((8, 8)), grid)
        assert m.cost().M == 16.0  # 64 words over 4 ranks

    def test_replicate_charges_and_marks(self):
        m = BSPMachine(8)
        g3 = ProcGrid(m, (2, 2, 2))
        dm = DistMatrix.cyclic(m, np.ones((8, 8)), g3.layer(0))
        rep = dm.replicate(g3.layers())
        assert rep.is_replicated
        # Each layer-1 rank must have received its 16-word share.
        l1 = g3.layer(1)
        for r in l1.group():
            assert m.counters[r].words_recv >= 16.0
        # Memory per rank now reflects a layer-local share.
        assert m.cost().M >= 16.0

    def test_redistribute_charges_histogram(self):
        m = BSPMachine(4)
        grid = ProcGrid(m, (2, 2))
        dm = DistMatrix.cyclic(m, np.arange(64.0).reshape(8, 8), grid)
        new_layout = BlockRowLayout(RankGroup((0, 1, 2, 3)), 8, 8)
        dm2 = dm.redistribute(new_layout)
        assert m.cost().W > 0
        assert np.array_equal(dm2.data, dm.data)

    def test_gather(self):
        m = BSPMachine(4)
        grid = ProcGrid(m, (2, 2))
        dm = DistMatrix.cyclic(m, np.arange(16.0).reshape(4, 4), grid)
        out = dm.gather(0)
        assert out.shape == (4, 4)
        assert m.counters[0].words_recv == pytest.approx(12.0)  # 16 - own 4

    def test_submatrix_is_free_and_shares_data(self):
        m = BSPMachine(4)
        grid = ProcGrid(m, (2, 2))
        dm = DistMatrix.cyclic(m, np.zeros((8, 8)), grid)
        before = m.cost().W
        sub = dm.submatrix(2, 2, 4, 4)
        assert m.cost().W == before
        sub.data[0, 0] = 7.0
        assert dm.data[2, 2] == 7.0

    def test_submatrix_bounds(self):
        m = BSPMachine(4)
        dm = DistMatrix.cyclic(m, np.zeros((4, 4)), ProcGrid(m, (2, 2)))
        with pytest.raises(ValueError):
            dm.submatrix(2, 2, 4, 4)

    def test_local_words(self):
        m = BSPMachine(4)
        dm = DistMatrix.cyclic(m, np.zeros((4, 4)), ProcGrid(m, (2, 2)))
        assert dm.local_words(0) == 4


class TestDistBandMatrix:
    def make(self, p=4, n=16, b=3):
        m = BSPMachine(p)
        a = random_banded_symmetric(n, b, seed=0)
        return m, DistBandMatrix(m, a, b, m.world)

    def test_column_ownership(self):
        m, band = self.make()
        assert band.owner_of_col(0) == 0
        assert band.owner_of_col(15) == 3
        assert band.owners_of_cols(3, 5).ranks == (0, 1)

    def test_owner_bounds(self):
        m, band = self.make()
        with pytest.raises(IndexError):
            band.owner_of_col(16)

    def test_fetch_window_charges(self):
        m, band = self.make()
        g = RankGroup((2, 3))
        log = ChargeLog(m)
        win = band.fetch_window(log, slice(0, 4), slice(0, 2), g)
        log.flush()
        assert win.shape == (4, 2)
        assert m.counters[2].words_recv == pytest.approx(4.0)  # 8 words / 2
        assert m.cost().S == 1

    def test_store_window_mirrors_symmetrically(self):
        m, band = self.make()
        vals = np.arange(8.0).reshape(4, 2)
        band.store_window(ChargeLog(m), slice(4, 8), slice(0, 2), vals, RankGroup((0,)))
        assert np.array_equal(band.data[4:8, 0:2], vals)
        assert np.array_equal(band.data[0:2, 4:8], vals.T)

    def test_store_window_shape_check(self):
        m, band = self.make()
        with pytest.raises(ValueError):
            band.store_window(
                ChargeLog(m), slice(0, 4), slice(0, 2), np.zeros((3, 2)), RankGroup((0,))
            )

    def test_gather_collects_band_words(self):
        m, band = self.make(p=4, n=16, b=3)
        band.gather(0)
        # 3 remote ranks x 4 columns x (b+1) words
        assert m.counters[0].words_recv == pytest.approx(3 * 4 * 4.0)

    def test_redistribute_to_smaller_group(self):
        m, band = self.make(p=4, n=16, b=3)
        small = m.world.take(2)
        band2 = band.redistribute(small)
        assert band2.group.size == 2
        assert m.cost().W > 0

    def test_memory_noted_in_band_words(self):
        m, band = self.make(p=4, n=16, b=3)
        assert m.cost().M == pytest.approx((3 + 1) * 4)

    def test_with_bandwidth(self):
        m, band = self.make()
        b2 = band.with_bandwidth(1)
        assert b2.b == 1
        assert b2.data is band.data
