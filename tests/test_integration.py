"""Integration tests: the full pipeline across matrix types, plus the
cross-solver cost comparisons that mirror the paper's claims."""

import numpy as np
import pytest

from repro.bsp import BSPMachine
from repro.eig import eigensolve_2p5d, eigensolve_scalapack_like
from repro.eig.full_to_band import full_to_band_2p5d
from repro.dist.grid import ProcGrid
from repro.util.matrices import (
    clustered_spectrum,
    random_spectrum_symmetric,
    random_symmetric,
)

from tests.helpers import eig_err, wilkinson


class TestMatrixZoo:
    """The solver must handle structurally nasty spectra, not just random."""

    def test_identity(self):
        res = eigensolve_2p5d(BSPMachine(4), np.eye(32))
        assert np.abs(res.eigenvalues - 1.0).max() < 1e-10

    def test_zero_matrix(self):
        res = eigensolve_2p5d(BSPMachine(4), np.zeros((32, 32)))
        assert np.abs(res.eigenvalues).max() < 1e-10

    def test_rank_one(self):
        v = np.arange(1.0, 33.0)
        a = np.outer(v, v) / np.dot(v, v)
        res = eigensolve_2p5d(BSPMachine(4), a)
        assert abs(res.eigenvalues[-1] - 1.0) < 1e-9
        assert np.abs(res.eigenvalues[:-1]).max() < 1e-9

    def test_tight_clusters(self):
        vals = clustered_spectrum(32, n_clusters=4, spread=1e-9, seed=1)
        a = random_spectrum_symmetric(vals, seed=2)
        res = eigensolve_2p5d(BSPMachine(8), a)
        assert np.abs(res.eigenvalues - np.sort(vals)).max() < 1e-7

    def test_wide_dynamic_range(self):
        vals = np.concatenate([np.logspace(-8, 8, 16), -np.logspace(-8, 8, 16)])
        a = random_spectrum_symmetric(np.sort(vals), seed=3)
        res = eigensolve_2p5d(BSPMachine(4), a)
        rel = np.abs(res.eigenvalues - np.sort(vals)) / np.maximum(np.abs(np.sort(vals)), 1e-8)
        assert np.median(rel) < 1e-6  # bisection resolves absolute scale

    def test_wilkinson_large(self):
        w = wilkinson(49)
        res = eigensolve_2p5d(BSPMachine(8), w, b0=8)
        assert eig_err(w, res.eigenvalues) < 1e-9

    def test_negative_definite(self):
        a = -random_spectrum_symmetric(np.linspace(1, 10, 24), seed=4)
        res = eigensolve_2p5d(BSPMachine(4), a)
        assert res.eigenvalues.max() < 0


class TestPaperClaims:
    """Coarse-grained cross-algorithm assertions (fine-grained shapes are in
    the benchmarks)."""

    def test_f2b_replication_tradeoff_w_down_m_up(self):
        n, b = 192, 32
        a = random_symmetric(n, seed=5)
        m1 = BSPMachine(16)
        full_to_band_2p5d(m1, ProcGrid(m1, (4, 4, 1)), a, b)
        m2 = BSPMachine(16)
        full_to_band_2p5d(m2, ProcGrid(m2, (2, 2, 4)), a, b)
        assert m2.cost().W < m1.cost().W  # less communication...
        assert m2.cost().M > m1.cost().M  # ...for more memory

    def test_2p5d_fewer_words_more_syncs_than_scalapack_shape(self):
        """At scale the 2.5D solver trades supersteps for bandwidth: S is
        larger per unit W than ScaLAPACK's per-column pattern for large n.
        Here we check the direction of the S difference at fixed n."""
        n = 64
        a = random_symmetric(n, seed=6)
        m_sc = BSPMachine(16)
        eigensolve_scalapack_like(m_sc, a)
        res = eigensolve_2p5d(BSPMachine(16), a, delta=2 / 3)
        # ScaLAPACK's S grows with n (per-column); ours with p^δ·log²p only.
        assert m_sc.cost().S >= n  # n columns, ≥1 superstep each
        assert res.cost.S < 40 * 16 ** (2 / 3) * np.log2(16) ** 2

    def test_work_efficiency_all_solvers(self):
        n = 48
        a = random_symmetric(n, seed=7)
        res = eigensolve_2p5d(BSPMachine(4), a)
        m_sc = BSPMachine(4)
        eigensolve_scalapack_like(m_sc, a)
        # Both within a constant factor of 2n³ total flops (plus the O(n²)
        # bisection sweeps, which dominate at this tiny n).
        for total in (res.cost.total_flops, m_sc.cost().total_flops):
            assert total < 200 * 2 * n**3

    def test_deterministic_given_seed(self):
        a = random_symmetric(40, seed=8)
        r1 = eigensolve_2p5d(BSPMachine(8), a)
        r2 = eigensolve_2p5d(BSPMachine(8), a)
        assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
        assert r1.cost.words == r2.cost.words
        assert r1.cost.supersteps == r2.cost.supersteps
