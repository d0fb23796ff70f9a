"""Band→tridiagonal in band storage (LAPACK ``dsbtrd``): the tridiagonal
has the band's spectrum to a backward error of c·n·ε·‖A‖₂ against
``np.linalg.eigvalsh``, and its Frobenius norm."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.linalg.band_tridiag import band_to_tridiagonal_storage, extract_band
from repro.util.matrices import clustered_spectrum, random_banded_symmetric, random_spectrum_symmetric

from tests.helpers import wilkinson
from tests.sbr_oracle import band_reduce_seq, full_to_band_seq

EPS = np.finfo(np.float64).eps
#: backward-error budget in multiples of n·ε·‖A‖₂
C = 8.0


def band_matrix(data):
    """The dense symmetric matrix whose lower band storage is ``data``."""
    n = data.shape[1]
    a = np.zeros((n, n))
    for k in range(min(data.shape[0], n)):
        idx = np.arange(n - k)
        a[idx + k, idx] = a[idx, idx + k] = data[k, : n - k]
    return a


def tridiagonal(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def assert_reduces(data, b):
    """(d, e) has the band's spectrum and Frobenius norm, and the input is
    left alone."""
    n = data.shape[1]
    keep = data.copy()
    d, e = band_to_tridiagonal_storage(data, b)
    assert np.array_equal(data, keep)
    assert d.shape == (n,) and e.shape == (max(0, n - 1),)
    ref = np.linalg.eigvalsh(band_matrix(data))
    norm2 = np.abs(ref).max()
    assert np.abs(np.linalg.eigvalsh(tridiagonal(d, e)) - ref).max() <= C * n * EPS * norm2
    # frobenius: each off-diagonal entry of the symmetric matrix counts twice
    want = np.sqrt((data[0] ** 2).sum() + 2.0 * sum(
        (data[k, : n - k] ** 2).sum() for k in range(1, min(b, n - 1) + 1)))
    got = np.sqrt((d ** 2).sum() + 2.0 * (e ** 2).sum())
    assert abs(got - want) <= C * n * EPS * want
    return d, e


@pytest.mark.parametrize("b", [2, 4, 5, 6, 8, 24])
@pytest.mark.parametrize("n", [31, 64])
def test_random_band(n, b):
    assert_reduces(extract_band(random_banded_symmetric(n, b, seed=n + b), b), b)


@pytest.mark.parametrize("n,b", [
    (1, 0), (1, 3),                          # one row
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


@pytest.mark.parametrize("b", [1, 5])
def test_wilkinson_and_clusters(b):
    """W⁺₂₁'s near-double eigenvalues, and four clusters of spread 1e-8
    behind a dense band."""
    assert_reduces(extract_band(wilkinson(21), b), b)
    a = random_spectrum_symmetric(clustered_spectrum(48, 4, 1e-8, seed=b), seed=b)
    assert_reduces(extract_band(full_to_band_seq(a, b), b), b)


@pytest.mark.parametrize("b", [4, 8, 24])
@pytest.mark.parametrize("scale", [1e-150, 1e150, -1e150])
def test_extreme_scale(b, scale):
    data = extract_band(random_banded_symmetric(40, b, seed=b), b) * scale
    d, e = assert_reduces(data, b)
    assert np.isfinite(d).all() and np.isfinite(e).all()


@pytest.mark.parametrize("b", [2, 5, 6, 12])
def test_agrees_with_the_h1_chase_of_algorithm_iv2(b):
    """The dense reference ``band_reduce_seq(a, b, 1)`` yields the same
    tridiagonal up to the sign of each off-diagonal entry: both keep e₁
    fixed, so the implicit-Q theorem makes (d, |e|) unique.  The entries of
    a tridiagonal form are not backward-stable quantities the way its
    spectrum is, hence the loose tolerance."""
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
