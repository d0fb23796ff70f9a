"""Tests for the tridiagonal eigensolver (Sturm bisection, LAPACK
``dstebz``): every spectrum within c·n·ε·‖T‖₂ of ``np.linalg.eigvalsh``."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.linalg import tridiag
from repro.linalg.tridiag import sturm_bisection_eigenvalues
from repro.util.matrices import clustered_spectrum, random_spectrum_symmetric

from tests.helpers import wilkinson

EPS = np.finfo(np.float64).eps


def tridiag_dense(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def tridiagonal_from_dense(t):
    """(diagonal, subdiagonal) of a dense tridiagonal matrix."""
    return np.diag(t).copy(), np.diag(t, -1).copy()


def eigenvalue_count_below(d, e, x):
    """ν(x), the number of the solver's eigenvalues of tridiag(d, e)
    strictly below each shift in ``x`` (always an array)."""
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    return (sturm_bisection_eigenvalues(d, e) < xs[..., None]).sum(axis=-1)


def gershgorin_interval(d, e):
    """An interval holding every eigenvalue of tridiag(d, e)."""
    radius = np.zeros_like(d)
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    return float(np.min(d - radius)), float(np.max(d + radius))


def assert_within_bound(d, e, c=1.0):
    """The solver's spectrum is eigvalsh's to c·n·ε·‖T‖₂."""
    ref = np.linalg.eigvalsh(tridiag_dense(d, e))
    got = sturm_bisection_eigenvalues(d, e)
    assert got.shape == ref.shape and np.all(got[1:] >= got[:-1])
    assert np.abs(got - ref).max() <= c * d.size * EPS * np.abs(ref).max()
    return got


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

    @pytest.mark.parametrize("d,e", [
        (np.full(5, 1e300), np.full(4, 1e300)),    # e² overflows
        (np.full(5, 1e-310), np.full(4, 1e-310)),  # subnormal: e² underflows to 0
        (np.array([1e308, -1e308, 1e308]), np.array([1e308, 1e308])),  # the Gershgorin bound overflows
    ], ids=["1e300", "1e-310", "1e308"])
    def test_outside_the_safe_range_is_scaled(self, d, e):
        assert_within_bound(d, e, c=4.0)

    def test_in_range_input_is_not_scaled(self, rng, monkeypatch):
        d, e = rng.standard_normal(9), rng.standard_normal(8)
        want = sturm_bisection_eigenvalues(d, e)
        monkeypatch.setattr(np, "ldexp", None)  # any scaling would fail
        assert sturm_bisection_eigenvalues(d, e).tobytes() == want.tobytes()

    def test_zero_matrix(self):
        assert np.array_equal(sturm_bisection_eigenvalues(np.zeros(5), np.zeros(4)), np.zeros(5))

    def test_every_eigenvalue_or_an_error(self, rng, monkeypatch):
        """Bisection that finds fewer than n eigenvalues is a RuntimeError,
        not a short spectrum."""
        d, e = rng.standard_normal(6), rng.standard_normal(5)
        found = tridiag.dstebz
        monkeypatch.setattr(tridiag, "dstebz", lambda d, e: found(d, e)[:-1])
        with pytest.raises(RuntimeError, match="found 5 of 6 eigenvalues"):
            sturm_bisection_eigenvalues(d, e)


def _tridiagonal_of(a):
    """(d, e) of a dense symmetric matrix, via LAPACK's Hessenberg reduction."""
    import scipy.linalg

    h = scipy.linalg.hessenberg(a)
    return np.diag(h).copy(), np.diag(h, -1).copy()


_SIZES = (8, 9, 16, 17, 34, 35, 73, 74, 170, 171)


def _cases():
    for n in sorted({1, 2, 3, 64, *_SIZES}):
        r = np.random.default_rng(100 + n)
        yield f"gaussian-{n}", 3.0 * r.standard_normal(n), 3.0 * r.standard_normal(n - 1)
    for n in sorted({48, *_SIZES}):
        a = random_spectrum_symmetric(clustered_spectrum(n, 4, 1e-8, seed=n), seed=n)
        yield (f"clustered-{n}", *_tridiagonal_of(a))
    yield ("wilkinson-21", *tridiagonal_from_dense(wilkinson(21)))
    r = np.random.default_rng(7)
    yield "gaussian-200", r.standard_normal(200), r.standard_normal(199)
    for n, scale in zip(_SIZES, (1e-150, 1e150) * 5):
        r = np.random.default_rng(300 + n)
        yield f"gaussian-{n}x{scale:.0e}", scale * r.standard_normal(n), scale * r.standard_normal(n - 1)
    for n in (8, 171):
        yield f"zero-{n}", np.zeros(n), np.zeros(n - 1)
    # A zero coupling e[r−1] splits the matrix at row r, and makes the
    # Sturm pivot of row r exactly 0 at the shift x = d[r].
    n = 300
    for name, row in (("first-row", 144), ("mid-block", 247)):
        r = np.random.default_rng(row)
        d, e = r.standard_normal(n), r.standard_normal(n - 1)
        e[row - 1] = 0.0
        yield f"tiny-pivot-{name}-{n}", d, e
    a = random_spectrum_symmetric(clustered_spectrum(384, 4, 1e-8, 11), 11)  # finish_wide's matrix, seed 11
    yield ("clustered-384", *_tridiagonal_of(a))
    r = np.random.default_rng(512)
    yield "gaussian-512", r.standard_normal(512), r.standard_normal(511)


_CASES = list(_cases())


@pytest.mark.parametrize("d,e", [c[1:] for c in _CASES], ids=[c[0] for c in _CASES])
def test_spectrum_within_the_bound(d, e):
    assert_within_bound(d, e)


class TestClusteredSpectra:
    def test_pipeline_resolves_tight_clusters(self):
        n = 20
        vals = clustered_spectrum(n, n_clusters=3, spread=1e-10, seed=5)
        a = random_spectrum_symmetric(vals, seed=6)
        d, e = _tridiagonal_of(a)
        got = sturm_bisection_eigenvalues(d, e)
        ref = np.linalg.eigvalsh(a)
        assert np.abs(got - ref).max() <= 4 * n * np.finfo(float).eps * np.linalg.norm(a, 2)
