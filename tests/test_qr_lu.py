"""Tests for sequential QR, non-pivoted LU, and Householder reconstruction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.linalg.lu import (
    invert_unit_lower,
    invert_upper,
    lu_nopivot,
    modified_lu,
    solve_unit_lower,
    solve_upper,
)
from repro.linalg.qr import blocked_qr, householder_qr
from repro.linalg.reconstruct import householder_reconstruct
from repro.linalg.householder import expand_q


class TestHouseholderQR:
    def test_reduced_mode(self, rng):
        a = rng.standard_normal((20, 7))
        q, r = householder_qr(a)
        assert np.linalg.norm(a - q @ r) < 1e-13 * np.linalg.norm(a)
        assert np.linalg.norm(q.T @ q - np.eye(7)) < 1e-13
        assert q.shape == (20, 7)

    def test_complete_mode(self, rng):
        a = rng.standard_normal((10, 4))
        q, r = householder_qr(a, mode="complete")
        assert q.shape == (10, 10)
        assert np.abs(q @ r - a).max() < 1e-12

    def test_unknown_mode(self, rng):
        with pytest.raises(ValueError, match="mode"):
            householder_qr(rng.standard_normal((4, 2)), mode="bogus")

    def test_r_matches_numpy_up_to_signs(self, rng):
        a = rng.standard_normal((15, 6))
        _, r = householder_qr(a)
        _, r_np = np.linalg.qr(a)
        assert np.allclose(np.abs(r), np.abs(r_np), atol=1e-10)


class TestBlockedQR:
    @pytest.mark.parametrize("nb", [1, 3, 8, 100])
    def test_block_sizes(self, rng, nb):
        a = rng.standard_normal((24, 16))
        u, t, r = blocked_qr(a.copy(), nb=nb)
        q = expand_q(u, t)
        assert np.abs(q @ r - a).max() < 1e-11
        assert np.abs(q.T @ q - np.eye(16)).max() < 1e-12

    def test_rejects_bad_nb(self, rng):
        with pytest.raises(ValueError):
            blocked_qr(rng.standard_normal((8, 4)), nb=0)

    @given(st.integers(4, 24), st.integers(1, 12), st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_property_random_shapes(self, m, n, nb):
        if m < n:
            m, n = n, m
        if m == 0 or n == 0:
            return
        a = np.random.default_rng(m * 31 + n).standard_normal((m, n))
        u, t, r = blocked_qr(a.copy(), nb=nb)
        q = expand_q(u, t)
        assert np.abs(q @ r - a).max() < 1e-10


class TestLU:
    def test_roundtrip(self, rng):
        a = rng.standard_normal((8, 8)) + 8 * np.eye(8)  # diagonally dominant
        lo, up = lu_nopivot(a)
        assert np.abs(lo @ up - a).max() < 1e-10
        assert np.allclose(np.diag(lo), 1.0)

    def test_zero_pivot_raises(self):
        with pytest.raises(ZeroDivisionError):
            lu_nopivot(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            lu_nopivot(np.zeros((3, 4)))

    def test_triangular_solves(self, rng):
        a = rng.standard_normal((6, 6)) + 6 * np.eye(6)
        lo, up = lu_nopivot(a)
        b = rng.standard_normal(6)
        x = solve_upper(up, solve_unit_lower(lo, b))
        assert np.abs(a @ x - b).max() < 1e-9

    def test_inverses(self, rng):
        a = rng.standard_normal((5, 5)) + 5 * np.eye(5)
        lo, up = lu_nopivot(a)
        assert np.abs(invert_unit_lower(lo) @ lo - np.eye(5)).max() < 1e-11
        assert np.abs(invert_upper(up) @ up - np.eye(5)).max() < 1e-9

    def test_singular_upper_solve_raises(self):
        with pytest.raises(ZeroDivisionError):
            solve_upper(np.zeros((2, 2)), np.ones(2))


class TestModifiedLU:
    def test_factors_orthonormal_top_block(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((12, 5)))
        lo, up, s = modified_lu(q[:5, :])
        assert np.abs(lo @ up - (q[:5, :] - np.diag(s))).max() < 1e-12
        assert set(np.unique(s)) <= {-1.0, 1.0}

    def test_pivots_at_least_one(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((9, 9)))
        _, up, _ = modified_lu(q)
        assert np.abs(np.diag(up)).min() >= 1.0 - 1e-12

    def test_handles_identity(self):
        # Q1 = I: degenerate but valid (diag all +1 -> S = -I).
        lo, up, s = modified_lu(np.eye(4))
        assert np.abs(lo @ up - (np.eye(4) + np.eye(4))).max() < 1e-14
        assert np.all(s == -1.0)


class TestReconstruction:
    @pytest.mark.parametrize("shape", [(8, 8), (20, 6), (50, 3), (7, 1)])
    def test_roundtrip(self, rng, shape):
        a = rng.standard_normal(shape)
        q, _ = np.linalg.qr(a)
        u, t, s = householder_reconstruct(q)
        assert np.linalg.norm(q * s - expand_q(u, t)) < 1e-10

    def test_full_q_is_orthogonal(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((16, 5)))
        u, t, _ = householder_reconstruct(q)
        qf = np.eye(16) - u @ t @ u.T
        assert np.abs(qf.T @ qf - np.eye(16)).max() < 1e-10

    def test_u_unit_lower_trapezoidal(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((10, 4)))
        u, t, _ = householder_reconstruct(q)
        assert np.allclose(np.diag(u[:4, :4]), 1.0, atol=1e-12)
        assert np.abs(np.triu(u[:4, :4], 1)).max() < 1e-12

    def test_wide_rejected(self, rng):
        with pytest.raises(ValueError):
            householder_reconstruct(rng.standard_normal((3, 5)))

    def test_sign_semantics(self, rng):
        # the thin (I − U T Uᵀ)E equals Q·diag(s) exactly.
        q, _ = np.linalg.qr(rng.standard_normal((12, 5)))
        u, t, s = householder_reconstruct(q)
        assert np.abs(expand_q(u, t) - q * s).max() < 1e-10

    def test_reconstruction_of_identity_prefix(self):
        # Q = first columns of I: an edge case with zero tails.
        q = np.eye(8, 3)
        u, t, s = householder_reconstruct(q)
        assert np.linalg.norm(q * s - expand_q(u, t)) < 1e-12
