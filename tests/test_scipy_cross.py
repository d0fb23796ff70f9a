"""Cross-validation against scipy (an independent oracle from numpy)."""

import numpy as np
import pytest
import scipy.linalg

from repro.linalg.tridiag import sturm_bisection_eigenvalues
from repro.util.matrices import random_banded_symmetric, random_symmetric

from tests.sbr_oracle import full_to_band_seq, tridiagonalize_band_seq


class TestAgainstScipy:
    def test_tridiagonal_solvers_vs_scipy(self, rng):
        d = rng.standard_normal(30)
        e = rng.standard_normal(29)
        ref = scipy.linalg.eigvalsh_tridiagonal(d, e)
        assert np.abs(sturm_bisection_eigenvalues(d, e) - ref).max() < 1e-9

    def test_full_pipeline_vs_scipy(self):
        a = random_symmetric(36, seed=20)
        ref = scipy.linalg.eigvalsh(a)
        tri = tridiagonalize_band_seq(full_to_band_seq(a, 8), 8)
        got = sturm_bisection_eigenvalues(np.diag(tri).copy(), np.diag(tri, -1).copy())
        assert np.abs(got - ref).max() < 1e-8

    def test_banded_reduction_vs_scipy_eig_banded(self):
        b = 4
        a = random_banded_symmetric(32, b, seed=21)
        # scipy's banded storage: row i holds the i-th subdiagonal.
        bands = np.zeros((b + 1, 32))
        for d_off in range(b + 1):
            bands[d_off, : 32 - d_off] = np.diag(a, -d_off)
        ref = scipy.linalg.eig_banded(bands, lower=True, eigvals_only=True)
        reduced = full_to_band_seq(a, 2)
        got = np.linalg.eigvalsh(reduced)
        assert np.abs(got - ref).max() < 1e-9
