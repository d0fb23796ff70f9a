"""Tests for the tridiagonal eigensolver (Sturm bisection)."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.linalg.tridiag import (
    _levels_per_pass,
    eigenvalue_count_below,
    gershgorin_interval,
    sturm_bisection_eigenvalues,
    tridiagonal_from_dense,
)
from repro.util.matrices import wilkinson, clustered_spectrum, random_spectrum_symmetric

from tests import sturm_oracle


def tridiag_dense(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


class TestSturmCount:
    def test_counts_match_numpy(self, rng):
        d = rng.standard_normal(12)
        e = rng.standard_normal(11)
        evals = np.linalg.eigvalsh(tridiag_dense(d, e))
        for x in (-5.0, 0.0, 0.3, 5.0):
            assert eigenvalue_count_below(d, e, x)[0] == int((evals < x).sum())

    def test_vectorized_over_shifts(self, rng):
        d = rng.standard_normal(9)
        e = rng.standard_normal(8)
        xs = np.linspace(-4, 4, 33)
        counts = eigenvalue_count_below(d, e, xs)
        assert counts.shape == xs.shape
        assert np.all(np.diff(counts) >= 0)  # monotone in the shift

    def test_count_extremes(self, rng):
        d = rng.standard_normal(6)
        e = rng.standard_normal(5)
        lo, hi = gershgorin_interval(d, e)
        assert eigenvalue_count_below(d, e, lo)[0] == 0
        assert eigenvalue_count_below(d, e, hi)[0] == 6

    def test_bad_offdiag_length(self):
        with pytest.raises(ValueError):
            eigenvalue_count_below(np.ones(4), np.ones(4), 0.0)

    def test_zero_offdiagonal_is_safe(self):
        # The Sturm recurrence divides by q; zero couplings must not blow up.
        d = np.array([1.0, 2.0, 2.0, 3.0])
        e = np.array([0.0, 1.0, 0.0])
        assert eigenvalue_count_below(d, e, 10.0)[0] == 4


class TestBisection:
    def test_matches_numpy_random(self, rng):
        d = rng.standard_normal(25)
        e = rng.standard_normal(24)
        got = sturm_bisection_eigenvalues(d, e)
        ref = np.linalg.eigvalsh(tridiag_dense(d, e))
        assert np.abs(got - ref).max() < 1e-9

    def test_wilkinson_clusters(self):
        w = wilkinson(21)
        d, e = tridiagonal_from_dense(w)
        got = sturm_bisection_eigenvalues(d, e)
        ref = np.linalg.eigvalsh(w)
        assert np.abs(got - ref).max() < 1e-10

    def test_single_element(self):
        assert sturm_bisection_eigenvalues(np.array([3.0]), np.array([])) == np.array([3.0])

    def test_diagonal_matrix(self):
        d = np.array([3.0, -1.0, 2.0])
        e = np.zeros(2)
        assert np.allclose(sturm_bisection_eigenvalues(d, e), np.sort(d), atol=1e-12)

    def test_large_magnitude_entries(self):
        d = np.array([1e8, -1e8, 0.0])
        e = np.array([1e4, 1e4])
        got = sturm_bisection_eigenvalues(d, e)
        ref = np.linalg.eigvalsh(tridiag_dense(d, e))
        assert np.abs(got - ref).max() < 1e-6 * 1e8

    @given(st.integers(2, 20))
    @settings(max_examples=20, deadline=None)
    def test_property_random_sizes(self, n):
        r = np.random.default_rng(n)
        d = r.standard_normal(n)
        e = r.standard_normal(n - 1)
        got = sturm_bisection_eigenvalues(d, e)
        ref = np.linalg.eigvalsh(tridiag_dense(d, e))
        assert np.abs(got - ref).max() < 1e-8


    def test_exhausted_max_iter_raises(self, rng):
        d = rng.standard_normal(10)
        e = rng.standard_normal(9)
        with pytest.raises(RuntimeError, match="did not converge in 3 sweeps"):
            sturm_bisection_eigenvalues(d, e, max_iter=3)
        # a loose tolerance is reached, and is not an error
        coarse = sturm_bisection_eigenvalues(d, e, tol=2.0, max_iter=8)
        assert np.abs(coarse - np.linalg.eigvalsh(tridiag_dense(d, e))).max() <= 2.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_a_typed_error(self, bad):
        d = np.array([1.0, 2.0, 3.0])
        e = np.array([0.5, 0.5])
        for where in (0, 1):
            broken = [d.copy(), e.copy()]
            broken[where][1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                sturm_bisection_eigenvalues(*broken)
            with pytest.raises(ValueError, match="non-finite"):
                eigenvalue_count_below(*broken, 0.0)

    @pytest.mark.parametrize("scale", [1e-150, 1e-20, 1e-6, 1.0, 1e150])
    def test_accuracy_is_relative_to_the_matrix(self, rng, scale):
        d = scale * rng.standard_normal(16)
        e = scale * rng.standard_normal(15)
        ref = np.linalg.eigvalsh(tridiag_dense(d, e))
        got = sturm_bisection_eigenvalues(d, e)
        assert np.abs(got - ref).max() <= 4 * 16 * np.finfo(float).eps * np.abs(ref).max()

    def test_gershgorin_pad_is_relative(self):
        assert gershgorin_interval(np.zeros(5), np.zeros(4)) == (0.0, 0.0)
        assert np.array_equal(sturm_bisection_eigenvalues(np.zeros(5), np.zeros(4)), np.zeros(5))
        lo, hi = gershgorin_interval(np.array([1e-30, -1e-30]), np.array([1e-30]))
        assert -2.1e-30 < lo < -2e-30 and 2e-30 < hi < 2.1e-30


def _tridiagonal_of(a):
    """(d, e) of a dense symmetric matrix, via LAPACK's Hessenberg reduction."""
    import scipy.linalg

    h = scipy.linalg.hessenberg(a)
    return np.diag(h).copy(), np.diag(h, -1).copy()


# Either side of every change in the bisection levels one recurrence pass
# counts (6 at n = 8 down to 1 from n = 171; pinned in TestMultisection).
_DEPTH_BOUNDARIES = (8, 9, 16, 17, 34, 35, 73, 74, 170, 171)


def _oracle_cases():
    for n in sorted({1, 2, 3, 64, *_DEPTH_BOUNDARIES}):
        r = np.random.default_rng(100 + n)
        yield f"gaussian-{n}", 3.0 * r.standard_normal(n), 3.0 * r.standard_normal(n - 1)
    for n in sorted({48, *_DEPTH_BOUNDARIES}):
        a = random_spectrum_symmetric(clustered_spectrum(n, 4, 1e-8, seed=n), seed=n)
        yield (f"clustered-{n}", *_tridiagonal_of(a))
    yield ("wilkinson-21", *tridiagonal_from_dense(wilkinson(21)))
    # more rows than one pivot block holds (2¹⁵ words / n shifts)
    r = np.random.default_rng(7)
    yield "gaussian-200", r.standard_normal(200), r.standard_normal(199)
    for n, scale in zip(_DEPTH_BOUNDARIES, (1e-150, 1e150) * 5):
        r = np.random.default_rng(300 + n)
        yield f"gaussian-{n}x{scale:.0e}", scale * r.standard_normal(n), scale * r.standard_normal(n - 1)
    for n in (8, 171):
        yield f"zero-{n}", np.zeros(n), np.zeros(n - 1)


_ORACLE_CASES = list(_oracle_cases())


@pytest.mark.parametrize("d,e", [c[1:] for c in _ORACLE_CASES], ids=[c[0] for c in _ORACLE_CASES])
class TestAgainstTextbookRecurrence:
    """The lean recurrence performs the same IEEE operations in the same
    order as the textbook loop kept in ``tests/sturm_oracle.py``."""

    def test_spectrum_bit_for_bit(self, d, e):
        want = sturm_oracle.bisection_eigenvalues(d, e)
        assert sturm_bisection_eigenvalues(d, e).tobytes() == want.tobytes()

    def test_counts_equal(self, d, e):
        lo, hi = gershgorin_interval(d, e)
        xs = np.concatenate((np.linspace(lo, hi, 41), d))  # shifts on the diagonal hit the guard
        want = sturm_oracle.count_below(d, e, xs)
        got = eigenvalue_count_below(d, e, xs)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(eigenvalue_count_below(d, e, xs.reshape(-1, 1)), want.reshape(-1, 1))


class TestMultisection:
    """Several bisection levels per recurrence pass take exactly the sweeps
    of one-level bisection, including where ``tol`` / ``max_iter`` stop it."""

    def test_levels_change_at_the_depth_boundaries(self):
        assert [_levels_per_pass(n) for n in _DEPTH_BOUNDARIES] == [6, 5, 5, 4, 4, 3, 3, 2, 2, 1]
        assert _levels_per_pass(2) == 8 and _levels_per_pass(4096) == 1

    @pytest.mark.parametrize("n", [8, 17, 74])
    def test_loop_controls_match_the_oracle(self, n):
        r = np.random.default_rng(n)
        d, e = r.standard_normal(n), r.standard_normal(n - 1)
        k = _levels_per_pass(n)
        lo, hi = gershgorin_interval(d, e)
        # tol = 1.5·width/2^s stops on sweep s: mid-tree unless k divides s
        tols = [0.0] + [1.5 * (hi - lo) / 2**s for s in range(1, 2 * k + 2)]
        for tol in tols:
            for max_iter in range(1, 2 * k + 2):
                try:
                    want = sturm_oracle.bisection_eigenvalues(d, e, tol=tol, max_iter=max_iter)
                except RuntimeError as exc:
                    with pytest.raises(RuntimeError, match=f"^{re.escape(str(exc))}$"):
                        sturm_bisection_eigenvalues(d, e, tol=tol, max_iter=max_iter)
                    continue
                got = sturm_bisection_eigenvalues(d, e, tol=tol, max_iter=max_iter)
                assert got.tobytes() == want.tobytes(), (tol, max_iter)

    @given(st.integers(2, 200), st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_property_bit_identical_to_the_oracle(self, n, seed):
        r = np.random.default_rng(seed)
        d, e = r.standard_normal(n), r.standard_normal(n - 1)
        want = sturm_oracle.bisection_eigenvalues(d, e)
        assert sturm_bisection_eigenvalues(d, e).tobytes() == want.tobytes()


class TestClusteredSpectra:
    def test_pipeline_resolves_tight_clusters(self):
        n = 20  # four levels per recurrence pass
        vals = clustered_spectrum(n, n_clusters=3, spread=1e-10, seed=5)
        a = random_spectrum_symmetric(vals, seed=6)
        d, e = _tridiagonal_of(a)
        got = sturm_bisection_eigenvalues(d, e)
        assert got.tobytes() == sturm_oracle.bisection_eigenvalues(d, e).tobytes()
        ref = np.linalg.eigvalsh(a)
        assert np.abs(got - ref).max() <= 4 * n * np.finfo(float).eps * np.linalg.norm(a, 2)
