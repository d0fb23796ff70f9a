"""Tests for the 2.5D square-QR variant."""

import numpy as np
import pytest

from repro.bsp import BSPMachine
from repro.blocks.square_qr_25d import square_qr_25d, usable_grid


class TestSquareQR25D:
    def check(self, a, u, t, r, tol=1e-9):
        m, n = a.shape
        q_thin = np.eye(m, n) - u @ (t @ u[:n, :].T)
        assert np.abs(q_thin @ r - a).max() < tol
        assert np.abs(q_thin.T @ q_thin - np.eye(n)).max() < tol

    @pytest.mark.parametrize("g,shape", [(16, (48, 40)), (64, (64, 64)), (8, (24, 20))])
    def test_factorization(self, rng, g, shape):
        m = BSPMachine(g)
        a = rng.standard_normal(shape)
        u, t, r = square_qr_25d(m, m.world, a, delta=2.0 / 3.0)
        self.check(a, u, t, r)

    def test_fallback_to_2d_for_tiny_groups(self, rng):
        m = BSPMachine(3)
        a = rng.standard_normal((12, 10))
        u, t, r = square_qr_25d(m, m.world, a, delta=2.0 / 3.0)
        self.check(a, u, t, r)

    def test_rejects_wide(self, rng):
        m = BSPMachine(4)
        with pytest.raises(ValueError):
            square_qr_25d(m, m.world, rng.standard_normal((3, 5)))

    def test_usable_grid(self):
        m = BSPMachine(64)
        g = usable_grid(m, m.world, 2.0 / 3.0)
        assert g is not None
        assert g.shape[0] == g.shape[1]
        assert g.size <= 64

    def test_replication_memory_noted(self, rng):
        m = BSPMachine(16)
        a = rng.standard_normal((64, 64))
        square_qr_25d(m, m.world, a, delta=2.0 / 3.0)
        assert m.cost().M > 64 * 64 / 16  # more than the unreplicated share

    def test_explicit_panel(self, rng):
        m = BSPMachine(16)
        a = rng.standard_normal((40, 32))
        u, t, r = square_qr_25d(m, m.world, a, delta=2.0 / 3.0, panel=5)
        self.check(a, u, t, r)
