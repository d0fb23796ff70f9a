"""Band-storage symmetric tridiagonalization: the sequential finish of Algorithm IV.3.

The finish reduces the gathered band (width b = n/p) to tridiagonal on one
rank, charged analytically by the caller; the host runs LAPACK's ``dsbtrd``
(Givens sweeps, Kaufman's chase) in the (b+1)·n band storage, for every b.

Lower-band storage convention (what :func:`extract_band` produces, and
LAPACK's ``uplo = 'L'`` band layout): ``data[d, j] = A[j+d, j]`` for
``d ∈ [0, b]``.
"""
# cost: free-module(sequential numerics; the finish stage charges analytic flop/stream costs)

from __future__ import annotations

import numpy as np

from repro.linalg.lapack import dsbtrd


def extract_band(a: np.ndarray, b: int) -> np.ndarray:
    """Lower-band storage ``data[d, j] = A[j+d, j]`` of a dense symmetric A."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    out = np.zeros((b + 1, n))
    for d in range(b + 1):
        out[d, : n - d] = a[np.arange(d, n), np.arange(n - d)]
    return out


def band_to_tridiagonal_storage(data: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduce band storage (shape (b+1, n)) to tridiagonal; returns (d, e).

    The input is not modified.  Working memory is the (b+1)·n band and
    O(n) more, never the dense n².  The signs of e are LAPACK's.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] != b + 1:
        raise ValueError(f"band storage must have shape (b+1, n), got {data.shape}")
    n = data.shape[1]
    return dsbtrd(data[: max(0, min(b, n - 1)) + 1])  # diagonals past the corner hold nothing
