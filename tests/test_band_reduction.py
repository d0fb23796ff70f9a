"""Tests for the parallel band reductions: Algorithm IV.2 and CA-SBR."""

import numpy as np
import pytest

from repro.bsp import BSPMachine
from repro.dist.banded import DistBandMatrix
from repro.eig.band_to_band import band_to_band_2p5d
from repro.eig.ca_sbr import band_to_tridiagonal_1d, ca_sbr_halve, ca_sbr_reduce
from repro.util.matrices import random_banded_symmetric
from repro.util.validation import matrix_bandwidth

from tests.helpers import eig_err


def make_band(p, n, b, seed=0):
    mach = BSPMachine(p)
    a = random_banded_symmetric(n, b, seed=seed)
    return mach, a, DistBandMatrix(mach, a.copy(), b, mach.world)


class TestBandToBand2p5d:
    @pytest.mark.parametrize("p,n,b,k", [(1, 32, 8, 2), (4, 32, 8, 2), (8, 48, 8, 4), (8, 64, 16, 2)])
    def test_bandwidth_and_spectrum(self, p, n, b, k):
        mach, a, band = make_band(p, n, b)
        out = band_to_band_2p5d(mach, band, k=k)
        assert out.b == b // k
        assert matrix_bandwidth(out.data) <= b // k
        assert eig_err(a, out.data) < 1e-9

    def test_rejects_non_dividing_k(self):
        mach, a, band = make_band(2, 32, 8)
        with pytest.raises(ValueError, match="divide"):
            band_to_band_2p5d(mach, band, k=3)

    def test_rejects_k_one(self):
        mach, a, band = make_band(2, 32, 8)
        with pytest.raises(ValueError):
            band_to_band_2p5d(mach, band, k=1)

    def test_charges_all_groups(self):
        mach, a, band = make_band(8, 64, 16)
        band_to_band_2p5d(mach, band, k=2)
        # Every rank participated in some group's chases.
        assert all(mach.counters.supersteps[r] > 0 for r in range(8))

    def test_repeated_halving(self):
        mach, a, band = make_band(4, 48, 8)
        out = band_to_band_2p5d(mach, band, k=2)
        out = band_to_band_2p5d(mach, out, k=2)
        assert out.b == 2
        assert eig_err(a, out.data) < 1e-9

    def test_larger_k_fewer_supersteps_per_target(self):
        """k = 4 in one stage vs two k = 2 stages: fewer sync points
        (the trade-off discussed at the end of Section IV)."""
        mach1, a, band1 = make_band(8, 64, 16, seed=3)
        out1 = band_to_band_2p5d(mach1, band1, k=4)
        mach2, _, band2 = make_band(8, 64, 16, seed=3)
        out2 = band_to_band_2p5d(mach2, band_to_band_2p5d(mach2, band2, k=2), k=2)
        assert out1.b == out2.b == 4
        assert mach1.cost().S < mach2.cost().S


class TestCASBR:
    def test_halve(self):
        mach, a, band = make_band(4, 40, 8)
        out = ca_sbr_halve(mach, band)
        assert out.b == 4
        assert matrix_bandwidth(out.data) <= 4
        assert eig_err(a, out.data) < 1e-9

    def test_halve_rejects_tiny_band(self):
        mach, a, band = make_band(2, 16, 1)
        with pytest.raises(ValueError):
            ca_sbr_halve(mach, band)

    def test_reduce_to_target(self):
        mach, a, band = make_band(4, 48, 16)
        out = ca_sbr_reduce(mach, band, 3)
        assert out.b <= 3
        assert eig_err(a, out.data) < 1e-9

    def test_reduce_rejects_bad_target(self):
        mach, a, band = make_band(2, 16, 4)
        with pytest.raises(ValueError):
            ca_sbr_reduce(mach, band, 0)

    def test_band_to_tridiagonal(self):
        mach, a, band = make_band(4, 36, 6)
        out = band_to_tridiagonal_1d(mach, band)
        assert out.b == 1
        assert matrix_bandwidth(out.data) <= 1
        assert eig_err(a, out.data) < 1e-9

    def test_tridiagonal_input_is_noop(self):
        mach, a, band = make_band(2, 16, 1)
        out = band_to_tridiagonal_1d(mach, band)
        assert out is band
        assert mach.cost().W == 0

    def test_handoff_communication_charged(self):
        mach, a, band = make_band(4, 64, 8)
        ca_sbr_halve(mach, band)
        # Bulges cross ownership boundaries: some rank communicated.
        assert mach.cost().W > 0

    def test_flops_concentrated_on_column_owners(self):
        mach, a, band = make_band(4, 64, 8)
        ca_sbr_halve(mach, band)
        assert all(mach.counters.flops[r] > 0 for r in range(4))
