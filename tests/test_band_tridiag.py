"""Band→tridiagonal in band storage: both sides of the band-width switch
(Givens sweeps up to ``GIVENS_MAX_BANDWIDTH``, Householder chase above)."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from repro.linalg.band_tridiag import (
    GIVENS_MAX_BANDWIDTH,
    band_to_tridiagonal_storage,
    extract_band,
)
from repro.linalg.sbr import band_reduce_seq
from repro.util.matrices import random_banded_symmetric

EPS = np.finfo(np.float64).eps
#: backward-error budget in multiples of n·ε·‖A‖₂ (worst seen over 3000 random (n, b, seed): 1.4)
C = 8.0


def tridiagonal_spectrum(d, e):
    if d.size == 1:
        return d.copy()
    return scipy.linalg.eigvalsh_tridiagonal(d, e)


def assert_reduces(data, b):
    """(d, e) has the band's spectrum (LAPACK's banded solver as oracle),
    the band's Frobenius norm, and the input is left alone."""
    n = data.shape[1]
    keep = data.copy()
    d, e = band_to_tridiagonal_storage(data, b)
    assert np.array_equal(data, keep)
    assert d.shape == (n,) and e.shape == (max(0, n - 1),)
    # scipy's lower banded form is this repo's: ab[i − j, j] = A[i, j]
    ref = scipy.linalg.eigvals_banded(data[: min(b, n - 1) + 1], lower=True)
    norm2 = np.abs(ref).max()
    assert np.abs(tridiagonal_spectrum(d, e) - ref).max() <= C * n * EPS * norm2
    # frobenius: each off-diagonal entry of the symmetric matrix counts twice
    want = np.sqrt((data[0] ** 2).sum() + 2.0 * sum(
        (data[k, : n - k] ** 2).sum() for k in range(1, min(b, n - 1) + 1)))
    got = np.sqrt((d ** 2).sum() + 2.0 * (e ** 2).sum())
    assert abs(got - want) <= C * n * EPS * want
    return d, e


def test_switch_sits_between_the_benchmarked_widths():
    # chase_large / chase_observed gather at b = 2 / 4, finish_wide at 24
    assert 4 <= GIVENS_MAX_BANDWIDTH < 24


@pytest.mark.parametrize("b", [2, 4, 5, 6, 8, 24])
@pytest.mark.parametrize("n", [31, 64])
def test_random_band_both_sides_of_the_switch(n, b):
    assert_reduces(extract_band(random_banded_symmetric(n, b, seed=n + b), b), b)


@pytest.mark.parametrize("n,b", [
    (2, 1), (2, 2), (3, 2), (3, 5),          # n ∈ {2, 3}
    (5, 4), (7, 6), (9, 8), (25, 24),        # b = n − 1
    (6, 7), (8, 8), (4, 24),                 # n ≤ b: diagonals past the corner
    (23, 4), (23, 5), (23, 6), (50, 8), (50, 24), (29, 12),  # n ∤ b
])
def test_ragged_shapes(n, b):
    bw = min(b, n - 1)
    data = np.zeros((b + 1, n))
    data[: bw + 1] = extract_band(random_banded_symmetric(n, bw, seed=7 * n + b), bw)
    assert_reduces(data, b)


@pytest.mark.parametrize("b", [3, 8])
def test_zero_and_identity(b):
    n = 20
    d, e = assert_reduces(np.zeros((b + 1, n)), b)
    assert not d.any() and not e.any()
    eye = np.zeros((b + 1, n))
    eye[0] = 1.0
    d, e = assert_reduces(eye, b)
    assert np.array_equal(d, np.ones(n)) and not e.any()


@pytest.mark.parametrize("b", [4, 8])
def test_already_tridiagonal_passes_through(b):
    n = 24
    data = extract_band(random_banded_symmetric(n, 1, seed=3), b)
    d, e = assert_reduces(data, b)
    assert np.array_equal(d, data[0]) and np.array_equal(e, data[1, : n - 1])


@pytest.mark.parametrize("b", [4, 8, 24])
@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_extreme_scale(b, scale):
    data = extract_band(random_banded_symmetric(40, b, seed=b), b) * scale
    d, e = assert_reduces(data, b)
    assert np.isfinite(d).all() and np.isfinite(e).all()


@pytest.mark.parametrize("b", [6, 12])
def test_householder_chase_is_the_h1_chase_of_algorithm_iv2(b):
    """Same index algebra as ``chase_steps(n, b, 1)``: the dense reference
    ``band_reduce_seq(a, b, 1)`` yields the same tridiagonal up to the sign
    of each off-diagonal entry (reflector sign conventions differ).  The
    entries of a tridiagonal form are not backward-stable quantities the way
    its spectrum is, hence the loose tolerance; another elimination order
    would differ in the first digit."""
    n = 41
    a = random_banded_symmetric(n, b, seed=b)
    d, e = band_to_tridiagonal_storage(extract_band(a, b), b)
    t = band_reduce_seq(a, b, 1)
    tol = 1e-9 * np.abs(np.linalg.eigvalsh(a)).max()
    assert np.abs(d - np.diag(t)).max() <= tol
    assert np.abs(np.abs(e) - np.abs(np.diag(t, -1))).max() <= tol


def test_rejects_wrong_shape():
    with pytest.raises(ValueError):
        band_to_tridiagonal_storage(np.zeros((4, 10)), 4)


@given(st.integers(2, 40), st.integers(1, 30), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_property_spectrum_and_norm_preserved(n, b, seed):
    bw = min(b, n - 1)
    data = np.zeros((b + 1, n))
    data[: bw + 1] = extract_band(random_banded_symmetric(n, bw, seed=seed), bw)
    assert_reduces(data, b)
