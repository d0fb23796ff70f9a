"""Tests for Householder kernels and compact-WY aggregation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.linalg.householder import (
    apply_block_reflector_left,
    compact_wy_qr,
    compact_wy_qr_general,
    expand_q,
    householder_vector,
)

EPS = np.finfo(np.float64).eps


class TestHouseholderVector:
    def test_annihilates_tail(self, rng):
        x = rng.standard_normal(7)
        v, tau, beta = householder_vector(x)
        hx = x - tau * v * np.dot(v, x)
        assert abs(hx[0] - beta) < 1e-12
        assert np.abs(hx[1:]).max() < 1e-12

    def test_norm_preserved(self, rng):
        x = rng.standard_normal(5)
        _, _, beta = householder_vector(x)
        assert abs(abs(beta) - np.linalg.norm(x)) < 1e-12

    def test_already_reduced_vector(self):
        v, tau, beta = householder_vector(np.array([3.0, 0.0, 0.0]))
        assert tau == 0.0 and beta == 3.0

    def test_sign_avoids_cancellation(self):
        _, _, beta = householder_vector(np.array([1.0, 1e-8]))
        assert beta < 0  # opposite sign of x[0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            householder_vector(np.array([]))

    @given(st.integers(1, 20))
    @settings(max_examples=25, deadline=None)
    def test_reflector_is_orthogonal(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        v, tau, _ = householder_vector(x)
        h = np.eye(n) - tau * np.outer(v, v)
        assert np.abs(h @ h.T - np.eye(n)).max() < 1e-12


class TestCompactWY:
    def test_factorization_identity(self, rng):
        a = rng.standard_normal((12, 5))
        u, t, r = compact_wy_qr(a)
        q = np.eye(12) - u @ t @ u.T
        assert np.abs(q.T @ q - np.eye(12)).max() < 1e-12
        assert np.abs((q.T @ a)[:5] - r).max() < 1e-11
        assert np.abs((q.T @ a)[5:]).max() < 1e-11

    def test_u_is_unit_lower_trapezoidal(self, rng):
        u, t, r = compact_wy_qr(rng.standard_normal((8, 4)))
        assert np.allclose(np.diag(u[:4, :4]), 1.0)
        assert np.abs(np.triu(u[:4, :4], 1)).max() == 0.0

    def test_t_is_upper_triangular(self, rng):
        u, t, r = compact_wy_qr(rng.standard_normal((8, 4)))
        assert np.abs(np.tril(t, -1)).max() == 0.0

    def test_wy_identity(self, rng):
        # UᵀU = T⁻¹ + T⁻ᵀ for a valid Householder representation.
        u, t, _ = compact_wy_qr(rng.standard_normal((10, 4)))
        tinv = np.linalg.inv(t)
        assert np.abs(u.T @ u - (tinv + tinv.T)).max() < 1e-10

    def test_rejects_wide(self, rng):
        with pytest.raises(ValueError):
            compact_wy_qr(rng.standard_normal((3, 5)))

    def test_square_input(self, rng):
        a = rng.standard_normal((6, 6))
        u, t, r = compact_wy_qr(a)
        q = np.eye(6) - u @ t @ u.T
        assert np.abs(q @ r - a).max() < 1e-11


class TestCompactWYGeneral:
    def test_wide_matrix(self, rng):
        a = rng.standard_normal((3, 8))
        u, t, r = compact_wy_qr_general(a)
        q = np.eye(3) - u @ t @ u.T
        assert np.abs(q.T @ a - r).max() < 1e-11
        assert np.abs(np.tril(r[:, :3], -1)).max() == 0.0

    def test_tall_agrees_with_compact_wy(self, rng):
        a = rng.standard_normal((9, 4))
        u1, t1, r1 = compact_wy_qr(a.copy())
        u2, t2, r2 = compact_wy_qr_general(a.copy())
        assert np.array_equal(r1, r2)
        assert np.array_equal(u1, u2)


class TestTinyTails:
    """A tail whose squared norm underflows is reflected, not dropped: LAPACK's
    ``dlarfg`` rescales, and so does :func:`householder_vector`."""

    @pytest.mark.parametrize("x", [[1e-300, 1e-300], [0.0, 1e-300], [-1e-300, 2e-300, 0.0, 5e-301],
                                   [1e-160, -3e-160, 2e-160], [3.0, 1e-170]])
    def test_householder_vector(self, x):
        x = np.array(x)
        v, tau, beta = householder_vector(x)
        norm = math.hypot(*x)
        assert v[0] == 1.0 and (beta < 0) == (x[0] >= 0)
        assert abs(abs(beta) - norm) <= 4 * EPS * norm
        hx = x - tau * v * np.dot(v, x)
        assert abs(hx[0] - beta) <= 4 * EPS * norm
        assert np.abs(hx[1:]).max() <= 4 * x.size * EPS * norm

    @pytest.mark.parametrize("a", [[[1e-300, 2.0], [1e-300, 3.0]],
                                   [[1e-300, 2e-300], [1e-300, 3e-300]],
                                   [[1.0, 1e-160, 0.0], [0.0, 2e-160, 1.0], [0.0, -1e-160, 1.0], [1.0, 0.0, 0.0]]])
    def test_qr_is_columnwise_backward_stable(self, a):
        """‖(QR − A)[:, j]‖ ≤ c·m·ε·‖A[:, j]‖ (Higham, Thm 19.4)."""
        a = np.array(a)
        m, n = a.shape
        u, t, r = compact_wy_qr_general(a)
        q = np.eye(m) - u @ t @ u.T
        res = q[:, : min(m, n)] @ r - a
        for j in range(n):
            assert np.abs(res[:, j]).max() <= 4 * m * EPS * math.hypot(*a[:, j]), j
        assert np.abs(q.T @ q - np.eye(m)).max() <= 4 * m * EPS


class TestApplyAndExpand:
    def test_apply_left_matches_explicit(self, rng):
        a = rng.standard_normal((10, 4))
        u, t, _ = compact_wy_qr(a)
        q = np.eye(10) - u @ t @ u.T
        c = rng.standard_normal((10, 6))
        assert np.abs(apply_block_reflector_left(u, t, c) - q @ c).max() < 1e-11
        assert np.abs(apply_block_reflector_left(u, t, c, transpose=True) - q.T @ c).max() < 1e-11

    def test_expand_thin_vs_full(self, rng):
        u, t, _ = compact_wy_qr(rng.standard_normal((8, 3)))
        qf = expand_q(u, t, full=True)
        qt = expand_q(u, t)
        assert qt.shape == (8, 3)
        assert np.abs(qf[:, :3] - qt).max() < 1e-12
