"""Tests for argument validation and matrix generators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.util.matrices import (
    clustered_spectrum,
    random_banded_symmetric,
    random_orthogonal,
    random_spectrum_symmetric,
    random_symmetric,
)
from repro.util.validation import (
    check_banded,
    check_positive_int,
    check_square,
    check_symmetric,
    frobenius_norm,
    matrix_bandwidth,
)

from tests.helpers import wilkinson


class TestCheckers:
    def test_positive_int_accepts(self):
        assert check_positive_int(3, "x") == 3
        assert check_positive_int(np.int64(5), "x") == 5

    def test_positive_int_rejects_zero(self):
        with pytest.raises(ValueError, match="x must be positive"):
            check_positive_int(0, "x")

    def test_positive_int_rejects_float(self):
        with pytest.raises(TypeError):
            check_positive_int(3.0, "x")

    def test_square_rejects_rect(self):
        with pytest.raises(ValueError, match="square"):
            check_square(np.zeros((2, 3)))

    def test_symmetric_rejects_asymmetric(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            check_symmetric(a)

    def test_symmetric_tolerance_is_relative(self):
        a = np.array([[1e12, 1e12], [1e12 + 0.1, 1e12]])
        check_symmetric(a)  # 0.1 absolute skew on 1e12-scale entries is fine

    def test_banded_accepts_within_band(self):
        a = random_banded_symmetric(10, 2, seed=0)
        check_banded(a, 2)
        check_banded(a, 5)

    def test_banded_rejects_outside(self):
        a = random_banded_symmetric(10, 4, seed=1)
        with pytest.raises(ValueError, match="band-width"):
            check_banded(a, 2)

    def test_matrix_bandwidth(self):
        assert matrix_bandwidth(np.eye(5)) == 0
        assert matrix_bandwidth(wilkinson(7)) == 1
        assert matrix_bandwidth(random_banded_symmetric(16, 3, seed=2)) == 3


class TestFrobeniusRelativeTolerances:
    """Regression (badly scaled inputs): tolerances are relative to ‖A‖_F
    (symmetry) or ``max(1, ‖A‖_F)`` (band-width), so 1e6-scale — and, for
    symmetry, 1e-12-scale — matrices are judged by their own magnitude
    instead of an absolute threshold."""

    def test_frobenius_norm_matches_numpy(self):
        a = random_symmetric(12, seed=0)
        assert frobenius_norm(a) == float(np.linalg.norm(a))
        assert frobenius_norm(np.zeros((3, 3))) == 0.0

    def test_large_scale_symmetric_passes(self):
        # float roundoff on 1e6-scale entries exceeds any absolute 1e-10
        # gate but is far inside the Frobenius-relative one
        a = 1e6 * random_symmetric(64, seed=1)
        a[0, 1] += 1e-6  # absolute skew ~ eps * ‖A‖_F
        check_symmetric(a)

    def test_large_scale_asymmetry_still_rejected(self):
        a = 1e6 * random_symmetric(64, seed=1)
        a[0, 1] += 0.1 * frobenius_norm(a)  # genuinely asymmetric
        with pytest.raises(ValueError, match="symmetric"):
            check_symmetric(a)

    def test_tiny_norm_asymmetry_rejected(self):
        # a fully asymmetric matrix is judged against its own norm: under
        # an absolute floor its 1e-12-scale skew would pass and be silently
        # symmetrised downstream
        a = 1e-12 * np.triu(np.ones((6, 6)))
        with pytest.raises(ValueError, match="symmetric"):
            check_symmetric(a)

    def test_tiny_norm_symmetric_and_zero_pass(self):
        a = 1e-12 * random_symmetric(16, seed=2)
        a[0, 1] += 1e-24  # skew ~ 1e-12 · ‖A‖_F: roundoff at this scale
        check_symmetric(a)
        check_symmetric(np.zeros((4, 4)))  # exactly symmetric, ‖A‖_F = 0

    def test_large_scale_banded(self):
        a = 1e6 * random_banded_symmetric(64, 3, seed=2)
        a[0, 40] = a[40, 0] = 1e-6  # negligible relative to ‖A‖_F
        check_banded(a, 3)
        a[0, 40] = a[40, 0] = frobenius_norm(a)  # genuine fill
        with pytest.raises(ValueError, match="band-width"):
            check_banded(a, 3)


class TestGenerators:
    def test_random_symmetric_is_symmetric(self):
        a = random_symmetric(20, seed=3)
        assert np.allclose(a, a.T)

    def test_seed_reproducibility(self):
        assert np.array_equal(random_symmetric(8, seed=4), random_symmetric(8, seed=4))

    def test_different_seeds_differ(self):
        assert not np.array_equal(random_symmetric(8, seed=4), random_symmetric(8, seed=5))

    def test_banded_bandwidth_bounds(self):
        with pytest.raises(ValueError):
            random_banded_symmetric(8, 8, seed=0)
        with pytest.raises(ValueError):
            random_banded_symmetric(8, -1, seed=0)

    def test_orthogonal(self):
        q = random_orthogonal(15, seed=6)
        assert np.allclose(q.T @ q, np.eye(15), atol=1e-12)

    def test_prescribed_spectrum(self):
        d = np.linspace(-3, 7, 12)
        a = random_spectrum_symmetric(d, seed=7)
        assert np.allclose(np.linalg.eigvalsh(a), np.sort(d), atol=1e-10)

    def test_wilkinson_structure(self):
        w = wilkinson(9)
        assert matrix_bandwidth(w) == 1
        assert w[0, 0] == w[8, 8] == 4.0

    def test_clustered_spectrum(self):
        vals = clustered_spectrum(50, n_clusters=3, spread=1e-9, seed=8)
        assert vals.size == 50
        assert np.all(np.diff(vals) >= 0)

    @given(st.integers(2, 30), st.integers(0, 5))
    @settings(max_examples=20, deadline=None)
    def test_banded_generator_property(self, n, b):
        if b >= n:
            return
        a = random_banded_symmetric(n, b, seed=9)
        assert np.allclose(a, a.T)
        assert matrix_bandwidth(a) <= b
