"""Sequential successive band reduction (SBR) via bulge chasing.

This module is the numerical reference for Section IV: a dense-to-banded
panel reduction (the sequential analogue of Algorithm IV.1) and a
banded-to-banded reduction following Algorithm IV.2's index algebra exactly
(the same :func:`chase_steps` drives the parallel version and the Figure 2
schedule reproduction).

Index conventions (0-indexed; the paper is 1-indexed):

For reduction from band-width ``b`` to ``h`` (``h | b`` not required, but
``h < b``), panel ``i ∈ [1, ⌈n/h⌉−1]`` and chase ``j ≥ 1``:

* ``oqr_r = i·h + (j−1)·b`` — first row of the QR block,
* ``oqr_c = oqr_r − h`` if j = 1 else ``oqr_r − b`` — first column,
* ``nr = min(n − oqr_r, b)`` — rows in the QR block (``h`` columns),
* ``oup_c = oqr_c + h``, ``nc = min(n − oup_c, h + 3b)`` — update window,
* ``ov = oqr_r − oup_c`` — row offset of the QR block inside the window.

Chase ``j`` exists while ``oqr_r < n``.  (The paper's loop bound
``⌊(n−ih−1)/b⌋`` is off by one in our reading — without the extra chase,
bulge tails near the matrix bottom survive; the tests demonstrate the fixed
bound reduces the band-width exactly.)
"""
# cost: free-module(sequential numerics; flops charged by repro.bsp.kernels callers)

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.linalg.householder import compact_wy_qr_general
from repro.util.validation import check_symmetric


@dataclass(frozen=True)
class ChaseStep:
    """One QR elimination + two-sided update of Algorithm IV.2 (0-indexed)."""

    i: int  # panel index (1-based, as in the paper)
    j: int  # chase index within the panel (1-based; j=1 is the elimination)
    oqr_r: int  # first row of the QR block
    oqr_c: int  # first column of the QR block
    nr: int  # rows in the QR block
    ncols: int  # columns in the QR block (h, clipped at matrix edge)
    oup_c: int  # first column of the update window
    nc: int  # width of the update window
    ov: int  # offset of the QR rows inside the update window

    @property
    def phase(self) -> int:
        """Pipeline phase: panel i starts after bulge i−1 is chased twice.

        Steps with equal phase run concurrently in Algorithm IV.2
        (cf. Figure 2: phase 5 = {(3,1), (2,3), (1,5)}).
        """
        return self.j + 2 * (self.i - 1)


def chase_steps(n: int, b: int, h: int) -> list[ChaseStep]:
    """Enumerate all chase steps reducing band-width ``b`` to ``h``.

    Returned in panel-major (sequential) order, which is a valid
    linearization of the paper's pipeline.
    """
    if not 1 <= h < b < n:
        raise ValueError(f"need 1 <= h < b < n, got h={h}, b={b}, n={n}")
    steps: list[ChaseStep] = []
    n_panels = -(-n // h) - 1  # ceil(n/h) − 1
    for i in range(1, n_panels + 1):
        j = 1
        while True:
            oqr_r = i * h + (j - 1) * b
            if oqr_r >= n:
                break
            oqr_c = oqr_r - h if j == 1 else oqr_r - b
            nr = min(n - oqr_r, b)
            ncols = min(h, n - oqr_c)
            oup_c = oqr_c + h
            nc = max(0, min(n - oup_c, h + 3 * b))
            ov = oqr_r - oup_c
            steps.append(
                ChaseStep(i=i, j=j, oqr_r=oqr_r, oqr_c=oqr_c, nr=nr, ncols=ncols, oup_c=oup_c, nc=nc, ov=ov)
            )
            j += 1
    return steps


def apply_chase_step(b_mat: np.ndarray, step: ChaseStep) -> tuple[np.ndarray, np.ndarray]:
    """Execute one chase step in place on the dense symmetric matrix.

    Returns the ``(U, T)`` compact-WY pair of the step's QR (callers that
    audit orthogonality or drive back-transformations can accumulate them).
    Follows lines 16–22 of Algorithm IV.2.
    """
    rows = slice(step.oqr_r, step.oqr_r + step.nr)
    cols = slice(step.oqr_c, step.oqr_c + step.ncols)
    u, t, r = compact_wy_qr_general(b_mat[rows, cols])
    # Lines 17: write [R; 0] and its transpose.
    blk = np.zeros((step.nr, step.ncols))
    blk[: r.shape[0], :] = r
    b_mat[rows, cols] = blk
    b_mat[cols, rows] = blk.T
    # Lines 18–22: trailing update on the window columns.
    if step.nc > 0:
        up = slice(step.oup_c, step.oup_c + step.nc)
        w = b_mat[up, rows] @ (u @ t)  # nc×r_ref
        v = -w
        vrows = slice(step.ov, step.ov + step.nr)
        v[vrows, :] += 0.5 * (u @ (t.T @ (u.T @ w[vrows, :])))
        b_mat[rows, up] += u @ v.T
        b_mat[up, rows] += v @ u.T
    return u, t


def band_reduce_seq(a: np.ndarray, b: int, h: int) -> np.ndarray:
    """Reduce a symmetric band-``b`` matrix to band-width ``h`` (dense I/O).

    Sequential reference implementation of Algorithm IV.2: same eigenvalues,
    band-width ``h`` on exit.
    """
    a = check_symmetric(a).copy()
    for step in chase_steps(a.shape[0], b, h):
        apply_chase_step(a, step)
    # Symmetrize to scrub roundoff asymmetry accumulated by the updates.
    a = (a + a.T) / 2.0
    return a


def full_to_band_seq(a: np.ndarray, b: int) -> np.ndarray:
    """Reduce a dense symmetric matrix to band-width ``b``.

    Right-looking sequential reference for Algorithm IV.1: panel QR of the
    sub-diagonal block, then the rank-2b two-sided update of Eqn IV.1 on the
    trailing matrix.
    """
    a = check_symmetric(a).copy()
    n = a.shape[0]
    if b < 1 or b >= n:
        raise ValueError(f"band-width must be in [1, n-1], got {b}")
    for c0 in range(0, n, b):
        r0 = c0 + b
        if r0 >= n:
            break
        w = min(b, n - c0)
        u, t, r = compact_wy_qr_general(a[r0:, c0 : c0 + w])
        blk = np.zeros((n - r0, w))
        blk[: r.shape[0], :] = r
        a[r0:, c0 : c0 + w] = blk
        a[c0 : c0 + w, r0:] = blk.T
        # Trailing two-sided update (Eqn IV.1) on A[r0:, r0:].
        x = a[r0:, r0:]
        wmat = x @ (u @ t)
        v = 0.5 * (u @ (t.T @ (u.T @ wmat))) - wmat
        a[r0:, r0:] = x + u @ v.T + v @ u.T
    return (a + a.T) / 2.0


def tridiagonalize_band_seq(a: np.ndarray, b: int) -> np.ndarray:
    """Reduce a symmetric band-``b`` matrix all the way to tridiagonal.

    Halves the band-width repeatedly (the multi-stage strategy of
    Algorithm IV.3) and finishes with a direct ``h=1`` reduction.
    """
    a = check_symmetric(a).copy()
    cur = b
    while cur > 1:
        nxt = max(1, cur // 2)
        a = band_reduce_seq(a, cur, nxt)
        cur = nxt
    return a
