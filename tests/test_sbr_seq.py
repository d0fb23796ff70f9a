"""Tests for sequential successive band reduction (the numerical reference
for Algorithms IV.1 / IV.2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.linalg.sbr import apply_chase_step, chase_steps
from repro.eig.schedule import chase_waves
from repro.linalg.tridiag import sturm_bisection_eigenvalues
from repro.util.matrices import random_banded_symmetric, random_symmetric
from repro.util.validation import matrix_bandwidth

from tests.helpers import eig_err
from tests.sbr_oracle import band_reduce_seq, full_to_band_seq, tridiagonalize_band_seq


class TestChaseSteps:
    def test_rejects_bad_bandwidths(self):
        with pytest.raises(ValueError):
            chase_steps(10, 4, 4)  # h must be < b
        with pytest.raises(ValueError):
            chase_steps(10, 12, 2)  # b must be < n

    def test_first_step_is_panel_elimination(self):
        steps = chase_steps(24, 4, 2)
        s = steps[0]
        assert (s.i, s.j) == (1, 1)
        assert s.oqr_r == 2 and s.oqr_c == 0
        assert s.ov == 0

    def test_bulge_handoff_invariant(self):
        # Chase j+1 eliminates columns starting exactly at chase j's rows.
        for steps_by_panel in [chase_steps(36, 6, 3), chase_steps(40, 8, 2)]:
            by_panel = {}
            for s in steps_by_panel:
                by_panel.setdefault(s.i, []).append(s)
            for chain in by_panel.values():
                for s0, s1 in zip(chain, chain[1:]):
                    assert s1.oqr_c == s0.oqr_r

    def test_offsets_in_range(self):
        for s in chase_steps(30, 6, 2):
            assert 0 <= s.oqr_c < s.oqr_r < 30
            assert s.nr >= 1 and s.ncols >= 1
            assert s.oqr_r + s.nr <= 30

    def test_phase_formula(self):
        for s in chase_steps(48, 8, 4):
            assert s.phase == s.j + 2 * (s.i - 1)

    @given(st.integers(10, 40), st.integers(2, 8), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_every_column_block_eliminated(self, n, b, h):
        if not (1 <= h < b < n):
            return
        steps = chase_steps(n, b, h)
        # Panel eliminations (j = 1) must cover all columns up to n-h.
        covered = set()
        for s in steps:
            if s.j == 1:
                covered.update(range(s.oqr_c, s.oqr_c + s.ncols))
        n_panels = -(-n // h) - 1
        assert covered == set(range(min(n - 1, n_panels * h)))


class TestBandReduce:
    @pytest.mark.parametrize("n,b,h", [(24, 4, 2), (24, 4, 1), (32, 8, 4), (30, 6, 3), (30, 6, 2)])
    def test_bandwidth_and_eigenvalues(self, n, b, h):
        a = random_banded_symmetric(n, b, seed=n + b + h)
        out = band_reduce_seq(a, b, h)
        assert matrix_bandwidth(out) <= h
        assert eig_err(a, out) < 1e-10

    def test_ragged_sizes(self):
        # n not divisible by b or h.
        a = random_banded_symmetric(29, 5, seed=1)
        out = band_reduce_seq(a, 5, 2)
        assert matrix_bandwidth(out) <= 2
        assert eig_err(a, out) < 1e-10

    def test_single_chase_step_preserves_eigenvalues(self):
        a = random_banded_symmetric(20, 4, seed=2)
        b_mat = a.copy()
        wave = chase_waves(20, 4, 2)[0]  # phase 1: the one step (1, 1)
        assert [(run.oqr_r, run.count) for run in wave] == [(chase_steps(20, 4, 2)[0].oqr_r, 1)]
        apply_chase_step(b_mat, wave)
        b_mat = (b_mat + b_mat.T) / 2
        assert eig_err(a, b_mat) < 1e-11

    def test_dense_input_with_declared_band_fails_gracefully(self):
        # Reducing a matrix whose actual band-width exceeds `b` is a caller
        # contract violation; the reduction then cannot reach band h.
        a = random_symmetric(16, seed=3)  # dense
        out = band_reduce_seq(a, 4, 2)
        assert matrix_bandwidth(out) > 2  # leftover fill betrays the misuse


class TestFullToBand:
    @pytest.mark.parametrize("n,b", [(24, 4), (32, 8), (29, 6), (16, 15)])
    def test_bandwidth_and_eigenvalues(self, n, b):
        a = random_symmetric(n, seed=n + b)
        out = full_to_band_seq(a, b)
        assert matrix_bandwidth(out) <= b
        assert eig_err(a, out) < 1e-10

    def test_rejects_bad_bandwidth(self):
        a = random_symmetric(8, seed=4)
        with pytest.raises(ValueError):
            full_to_band_seq(a, 0)
        with pytest.raises(ValueError):
            full_to_band_seq(a, 8)

    def test_band_input_is_noop_like(self):
        a = random_banded_symmetric(20, 3, seed=5)
        out = full_to_band_seq(a, 10)
        assert eig_err(a, out) < 1e-11


class TestTridiagonalizeAndPipeline:
    def test_tridiagonalize(self):
        a = random_banded_symmetric(24, 6, seed=6)
        t = tridiagonalize_band_seq(a, 6)
        assert matrix_bandwidth(t) <= 1
        assert eig_err(a, t) < 1e-9

    @given(st.integers(6, 28))
    @settings(max_examples=15, deadline=None)
    def test_property_spectrum_preserved(self, n):
        """full → band → tridiagonal → Sturm bisection, end to end."""
        a = random_symmetric(n, seed=n * 7)
        b = min(8, n - 2)
        tri = tridiagonalize_band_seq(full_to_band_seq(a, b), b)
        evals = sturm_bisection_eigenvalues(np.diag(tri).copy(), np.diag(tri, -1).copy())
        assert eig_err(a, evals) < 1e-8
