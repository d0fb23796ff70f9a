"""Tests for the distributed band matrix (cost accounting)."""

import numpy as np
import pytest

from repro.bsp import BSPMachine, RankGroup
from repro.bsp.batch import ChargeLog
from repro.dist import DistBandMatrix
from repro.util.matrices import random_banded_symmetric


class TestDistBandMatrix:
    def make(self, p=4, n=16, b=3):
        m = BSPMachine(p)
        a = random_banded_symmetric(n, b, seed=0)
        return m, DistBandMatrix(m, a, b, m.world)

    def test_column_ownership(self):
        m, band = self.make()
        assert band.owners_of_cols(0, 1).ranks == (0,)
        assert band.owners_of_cols(15, 16).ranks == (3,)
        assert band.owners_of_cols(3, 5).ranks == (0, 1)

    def test_fetch_window_charges(self):
        m, band = self.make()
        g = RankGroup((2, 3))
        log = ChargeLog(m)
        win = band.fetch_window(log, slice(0, 4), slice(0, 2), g)
        log.flush()
        assert win.shape == (4, 2)
        assert m.counters.words_recv[2] == pytest.approx(4.0)  # 8 words / 2
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
        assert m.counters.words_recv[0] == pytest.approx(3 * 4 * 4.0)

    def test_redistribute_to_smaller_group(self):
        m, band = self.make(p=4, n=16, b=3)
        small = m.world.take(2)
        band2 = band.redistribute(small)
        assert band2.group.size == 2
        assert m.cost().W > 0

    def test_memory_noted_in_band_words(self):
        m, band = self.make(p=4, n=16, b=3)
        assert m.cost().M == pytest.approx((3 + 1) * 4)
