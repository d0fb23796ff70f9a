"""Tests for the parallel QR building blocks: TSQR, square-QR, rect-QR."""

import numpy as np
import pytest

from repro.bsp import BSPMachine
from repro.blocks.rect_qr import default_qmax, rect_qr
from repro.blocks.square_qr import square_qr
from repro.blocks.tsqr import tsqr, tsqr_thin
from repro.model.costs import rect_qr_cost


def hh_checks(a, u, t, r, tol=1e-9):
    """Assert the Householder-form output factors A exactly."""
    m, n = a.shape
    q_thin = np.eye(m, n) - u @ (t @ u[:n, :].T)
    assert np.abs(q_thin @ r - a).max() < tol * max(1, np.abs(a).max())
    assert np.abs(q_thin.T @ q_thin - np.eye(n)).max() < tol
    q_full = np.eye(m) - u @ t @ u.T
    assert np.abs(q_full.T @ q_full - np.eye(m)).max() < tol


class TestTSQR:
    @pytest.mark.parametrize("p,m,n", [(1, 30, 5), (2, 30, 5), (8, 128, 8), (8, 63, 5)])
    def test_householder_form(self, p, m, n):
        mach = BSPMachine(p)
        a = np.random.default_rng(p * m).standard_normal((m, n))
        u, t, r = tsqr(mach, mach.world, a)
        hh_checks(a, u, t, r)

    def test_thin_variant(self):
        mach = BSPMachine(4)
        a = np.random.default_rng(1).standard_normal((64, 6))
        q, r = tsqr_thin(mach, mach.world, a)
        assert np.abs(q @ r - a).max() < 1e-10
        assert np.abs(q.T @ q - np.eye(6)).max() < 1e-11

    def test_rejects_wide(self):
        mach = BSPMachine(2)
        with pytest.raises(ValueError):
            tsqr(mach, mach.world, np.zeros((3, 5)))

    def test_rank_count_self_limits(self):
        # m // n = 2 < p: only 2 ranks do leaf QRs; ranks 2+ stay idle.
        mach = BSPMachine(8)
        a = np.random.default_rng(2).standard_normal((16, 8))
        u, t, r = tsqr(mach, mach.world, a)
        hh_checks(a, u, t, r)
        assert mach.counters.flops[7] == 0.0

    def test_tree_supersteps_logarithmic(self):
        mach = BSPMachine(16)
        a = np.random.default_rng(3).standard_normal((256, 4))
        tsqr(mach, mach.world, a)
        assert mach.cost().S <= 6 * np.log2(16) + 4

    def test_r_upper_triangular(self):
        mach = BSPMachine(4)
        a = np.random.default_rng(4).standard_normal((40, 6))
        _, _, r = tsqr(mach, mach.world, a)
        assert np.abs(np.tril(r, -1)).max() < 1e-12


class TestSquareQR:
    @pytest.mark.parametrize("p,m,n", [(1, 20, 20), (4, 24, 24), (4, 40, 24), (9, 36, 30)])
    def test_householder_form(self, p, m, n):
        mach = BSPMachine(p)
        a = np.random.default_rng(p + m).standard_normal((m, n))
        u, t, r = square_qr(mach, mach.world, a)
        hh_checks(a, u, t, r)

    def test_explicit_panel_width(self):
        mach = BSPMachine(4)
        a = np.random.default_rng(5).standard_normal((16, 16))
        u, t, r = square_qr(mach, mach.world, a, panel=3)
        hh_checks(a, u, t, r)

    def test_rejects_wide(self):
        mach = BSPMachine(2)
        with pytest.raises(ValueError):
            square_qr(mach, mach.world, np.zeros((3, 5)))

    def test_w_decreases_with_ranks(self):
        a = np.random.default_rng(6).standard_normal((64, 64))
        ws = []
        for p in (4, 16):
            mach = BSPMachine(p)
            square_qr(mach, mach.world, a)
            ws.append(mach.cost().W)
        assert ws[1] < ws[0]


class TestRectQR:
    @pytest.mark.parametrize(
        "p,m,n", [(1, 40, 10), (4, 80, 10), (8, 256, 8), (8, 60, 30), (16, 512, 4)]
    )
    def test_householder_form(self, p, m, n):
        mach = BSPMachine(p)
        a = np.random.default_rng(p * 3 + m).standard_normal((m, n))
        u, t, r = rect_qr(mach, mach.world, a)
        hh_checks(a, u, t, r)

    def test_rejects_wide(self):
        mach = BSPMachine(2)
        with pytest.raises(ValueError):
            rect_qr(mach, mach.world, np.zeros((3, 5)))

    def test_default_qmax_formula(self):
        assert default_qmax(1, 100, 10) == 1
        q = default_qmax(64, 640, 10, delta=0.5)
        assert q == int(np.ceil(64 * 10 / 640 * np.log2(64) ** 2))

    def test_cost_within_model_slack(self):
        p, m, n = 8, 512, 16
        mach = BSPMachine(p)
        a = np.random.default_rng(7).standard_normal((m, n))
        rect_qr(mach, mach.world, a)
        pred = rect_qr_cost(m, n, p)
        rep = mach.cost()
        assert rep.W <= 20 * pred.W  # constants + log factors
        assert rep.flops <= 20 * pred.flops * p / p

    def test_work_efficiency(self):
        # Total flops across ranks stay within a constant of 2mn^2.
        p, m, n = 8, 256, 16
        mach = BSPMachine(p)
        a = np.random.default_rng(8).standard_normal((m, n))
        rect_qr(mach, mach.world, a)
        assert mach.cost().total_flops <= 12 * 2 * m * n * n

    def test_r_signs_consistent_with_q(self):
        # A = Q_thin R must hold exactly with the returned R (signs folded).
        mach = BSPMachine(4)
        a = np.random.default_rng(9).standard_normal((96, 12))
        u, t, r = rect_qr(mach, mach.world, a)
        q_thin = np.eye(96, 12) - u @ (t @ u[:12, :].T)
        assert np.abs(q_thin @ r - a).max() < 1e-9
