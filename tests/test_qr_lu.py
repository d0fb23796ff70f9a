"""Tests for the triangular kernels, modified LU, and Householder reconstruction."""

import numpy as np
import pytest

from repro.linalg.lu import (
    invert_unit_lower,
    invert_upper,
    modified_lu,
    solve_unit_lower,
    solve_upper,
)
from repro.linalg.reconstruct import householder_reconstruct
from repro.linalg.householder import expand_q


def _unit_lower_and_upper(rng, n):
    """Well-conditioned triangular factors: unit-lower L, upper U."""
    lo = np.tril(rng.standard_normal((n, n)), -1) / n + np.eye(n)
    up = np.triu(rng.standard_normal((n, n))) + n * np.eye(n)
    return lo, up


class TestLU:
    def test_triangular_solves(self, rng):
        lo, up = _unit_lower_and_upper(rng, 6)
        b = rng.standard_normal(6)
        x = solve_upper(up, solve_unit_lower(lo, b))
        assert np.abs(lo @ up @ x - b).max() < 1e-9

    def test_inverses(self, rng):
        lo, up = _unit_lower_and_upper(rng, 5)
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
