"""Test-matrix generators.

These produce the symmetric / banded / orthogonal matrices used by the
examples, tests, and benchmark workloads.  All generators take an explicit
``seed`` (or ``rng``) so every experiment in EXPERIMENTS.md is reproducible.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_positive_int


def _rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_symmetric(n: int, seed: int | np.random.Generator | None = 0, scale: float = 1.0) -> np.ndarray:
    """Return a dense random symmetric n×n matrix with entries O(scale)."""
    n = check_positive_int(n, "n")
    rng = _rng(seed)
    a = rng.standard_normal((n, n)) * scale
    return (a + a.T) / 2.0


def random_banded_symmetric(
    n: int, bandwidth: int, seed: int | np.random.Generator | None = 0, scale: float = 1.0
) -> np.ndarray:
    """Return a random symmetric n×n matrix with band-width ``bandwidth``.

    Band-width ``b`` means entries vanish for ``|i - j| > b`` (paper
    convention: a tridiagonal matrix has band-width 1).
    """
    n = check_positive_int(n, "n")
    if bandwidth < 0 or bandwidth >= n:
        raise ValueError(f"bandwidth must be in [0, n-1], got {bandwidth}")
    a = random_symmetric(n, seed, scale)
    i, j = np.indices((n, n))
    a[np.abs(i - j) > bandwidth] = 0.0
    return a


def random_orthogonal(n: int, seed: int | np.random.Generator | None = 0) -> np.ndarray:
    """Return a Haar-ish random orthogonal matrix via QR of a Gaussian."""
    n = check_positive_int(n, "n")
    rng = _rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))  # cost: free(test-matrix generation on the host, before any machine exists)
    # Fix signs so the distribution does not favour +diag(R) (standard trick).
    return q * np.sign(np.diag(r))


def random_spectrum_symmetric(
    eigenvalues: np.ndarray, seed: int | np.random.Generator | None = 0
) -> np.ndarray:
    """Return a symmetric matrix with exactly the prescribed eigenvalues.

    Useful for accuracy tests: we know the ground-truth spectrum without
    trusting any eigensolver.
    """
    d = np.asarray(eigenvalues, dtype=np.float64).ravel()
    q = random_orthogonal(d.size, seed)
    return (q * d) @ q.T  # cost: free(test-matrix generation on the host, before any machine exists)


def wilkinson(n: int) -> np.ndarray:
    """Return the Wilkinson W_n tridiagonal matrix (clustered eigenvalues).

    A classic stress test for symmetric eigensolvers: pairs of eigenvalues
    agree to many digits.
    """
    n = check_positive_int(n, "n")
    m = (n - 1) / 2.0
    diag = np.abs(np.arange(n) - m)
    a = np.diag(diag)
    off = np.ones(n - 1)
    a += np.diag(off, 1) + np.diag(off, -1)
    return a


def clustered_spectrum(n: int, n_clusters: int = 4, spread: float = 1e-8,
                       seed: int | np.random.Generator | None = 0) -> np.ndarray:
    """Return ``n`` eigenvalues grouped in ``n_clusters`` tight clusters."""
    n = check_positive_int(n, "n")
    n_clusters = check_positive_int(n_clusters, "n_clusters")
    rng = _rng(seed)
    centers = rng.uniform(-10.0, 10.0, size=n_clusters)
    vals = centers[rng.integers(0, n_clusters, size=n)] + rng.standard_normal(n) * spread
    return np.sort(vals)
