"""Symmetric band matrix storage.

Band-width ``b`` follows the paper's convention: ``A[i, j] = 0`` whenever
``|i − j| > b`` (tridiagonal ⇔ b = 1).  Storage is LAPACK-style lower band:
``data[d, j] = A[j + d, j]`` for ``d ∈ [0, b]`` — (b+1)·n words, which is what
the distributed banded layer charges for memory and communication.
"""
# cost: free-module(sequential band-container numerics; callers charge via repro.bsp.kernels or explicit machine charges)

from __future__ import annotations

import numpy as np

from repro.util.validation import check_positive_int


class SymmetricBand:
    """A symmetric matrix of order ``n`` with band-width ``b``.

    Only the lower band is stored.  Windows (dense sub-blocks) can be read
    and written for bulge chasing; writes outside the band raise unless the
    window was widened first with :meth:`widen`.
    """

    def __init__(self, n: int, bandwidth: int, data: np.ndarray | None = None):
        self.n = check_positive_int(n, "n")
        if bandwidth < 0 or bandwidth >= n:
            raise ValueError(f"bandwidth must be in [0, n-1], got {bandwidth}")
        self.b = int(bandwidth)
        if data is None:
            self.data = np.zeros((self.b + 1, self.n))
        else:
            data = np.asarray(data, dtype=np.float64)
            if data.shape != (self.b + 1, self.n):
                raise ValueError(f"data must have shape {(self.b + 1, self.n)}, got {data.shape}")
            self.data = data.copy()

    # ------------------------------------------------------------------ #
    # conversions

    @classmethod
    def from_dense(cls, a: np.ndarray, bandwidth: int) -> "SymmetricBand":
        """Extract the band of a dense symmetric matrix."""
        a = np.asarray(a, dtype=np.float64)
        n = a.shape[0]
        sb = cls(n, bandwidth)
        for d in range(bandwidth + 1):
            sb.data[d, : n - d] = np.diag(a, -d)
        return sb

    def to_dense(self) -> np.ndarray:
        """Materialize the full dense symmetric matrix."""
        a = np.zeros((self.n, self.n))
        for d in range(self.b + 1):
            idx = np.arange(self.n - d)
            a[idx + d, idx] = self.data[d, : self.n - d]
            if d > 0:
                a[idx, idx + d] = self.data[d, : self.n - d]
        return a

    # ------------------------------------------------------------------ #
    # element/window access

    def __getitem__(self, ij: tuple[int, int]) -> float:
        i, j = ij
        if i < j:
            i, j = j, i
        d = i - j
        if d > self.b:
            return 0.0
        return float(self.data[d, j])

    def __setitem__(self, ij: tuple[int, int], value: float) -> None:
        i, j = ij
        if i < j:
            i, j = j, i
        d = i - j
        if d > self.b:
            raise IndexError(f"({i},{j}) outside band-width {self.b}")
        self.data[d, j] = value

    def window(self, rows: slice, cols: slice) -> np.ndarray:
        """Return a dense copy of the sub-block A[rows, cols].

        Vectorized banded gather: element (i, j) lives at
        ``data[|i−j|, min(i,j)]`` when ``|i−j| ≤ b`` and is zero outside
        the band — one fancy-indexed read for the whole window.
        """
        r = np.arange(rows.start, rows.stop)
        c = np.arange(cols.start, cols.stop)
        i = np.maximum(r[:, None], c[None, :])
        j = np.minimum(r[:, None], c[None, :])
        d = i - j
        inside = d <= self.b
        return np.where(inside, self.data[np.where(inside, d, 0), np.where(inside, j, 0)], 0.0)

    @property
    def words(self) -> int:
        """Stored words: (b+1)·n."""
        return (self.b + 1) * self.n

    def bandwidth_check(self, tol: float = 1e-12) -> int:
        """Return the actual band-width of the stored data (≤ b)."""
        scale = max(1.0, float(np.abs(self.data).max(initial=0.0)))
        for d in range(self.b, 0, -1):
            if np.abs(self.data[d, : self.n - d]).max(initial=0.0) > tol * scale:
                return d
        return 0

    def shrink(self, new_bandwidth: int, tol: float = 1e-10) -> "SymmetricBand":
        """Return a copy with smaller band-width; data outside must be ~0."""
        if new_bandwidth >= self.b:
            raise ValueError("new bandwidth must be smaller")
        actual = self.bandwidth_check(tol)
        if actual > new_bandwidth:
            raise ValueError(f"matrix has band-width {actual} > requested {new_bandwidth}")
        out = SymmetricBand(self.n, new_bandwidth)
        out.data[:] = self.data[: new_bandwidth + 1]
        return out

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues via this repo's successive band reduction + bisection.

        Used at the very end of the parallel pipeline (the band is n/p wide,
        gathered on one rank).  Validated against numpy in tests.
        """
        from repro.linalg.band_tridiag import band_to_tridiagonal_storage
        from repro.linalg.tridiag import sturm_bisection_eigenvalues

        if self.b == 0:
            return np.sort(self.data[0].copy())
        if self.b == 1:
            d = self.data[0].copy()
            e = self.data[1, : self.n - 1].copy()
        else:
            # Reduce in band storage — O(n·b) working words, never the
            # dense n² that to_dense() + tridiagonalize_band_seq needed.
            d, e = band_to_tridiagonal_storage(self.data, self.b)
        return sturm_bisection_eigenvalues(d, e)
