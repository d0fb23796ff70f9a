"""The chase engine as it was before :mod:`repro.linalg.sbr` stacked the
steps of a pipeline phase — kept as the bit-for-bit oracle of the wave
engine.

One chase step at a time, in panel-major order, each a 2-D compact-WY QR
built one reflector at a time from scalar Householder vectors: slow, and
obviously Algorithm IV.2's lines 16–22.

Also the sequential dense-I/O references of Section IV the tests compare
the parallel stages against: :func:`band_reduce_seq` (Algorithm IV.2 on the
wave engine), :func:`full_to_band_seq` (Algorithm IV.1) and
:func:`tridiagonalize_band_seq` (repeated halving to tridiagonal).
"""

from __future__ import annotations

import numpy as np

from repro.linalg import householder, sbr
from repro.linalg.sbr import ChaseStep, chase_steps
from repro.util.validation import check_symmetric


def householder_vector(x: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Reflector ``(v, τ, β)`` with ``(I − τ v vᵀ) x = β e₁``, ``v[0] = 1``."""
    v = np.array(x, dtype=np.float64).ravel()
    if v.size == 0:
        raise ValueError("householder_vector requires a non-empty vector")
    x0 = v[0]
    tail = v[1:]
    sigma = float(np.dot(tail, tail))
    v[0] = 1.0
    if sigma == 0.0:
        return v, 0.0, float(x0)
    norm_x = np.sqrt(x0 ** 2 + sigma)
    beta = -norm_x if x0 >= 0 else norm_x
    v0 = x0 - beta
    tail /= v0
    tau = -v0 / beta
    return v, float(tau), float(beta)


def compact_wy_qr_general(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(U, T, R)`` of an m×n matrix with ``r = min(m, n)`` reflectors."""
    a = np.array(a, dtype=np.float64)
    m, n = a.shape
    r = min(m, n)
    u = np.zeros((m, r))
    t = np.zeros((r, r))
    for j in range(r):
        v, tau, beta = householder_vector(a[j:, j])
        if tau != 0.0:
            w = tau * (v @ a[j:, j:])
            a[j:, j:] -= v[:, None] * w
        a[j, j] = beta
        a[j + 1 :, j] = 0.0
        u[j:, j] = v
        if j > 0 and tau != 0.0:
            z = u[j:, :j].T @ v
            t[:j, j] = -tau * (t[:j, :j] @ z)
        t[j, j] = tau
    return u, t, a[:r, :].copy()


def apply_chase_step(b_mat: np.ndarray, step: ChaseStep) -> tuple[np.ndarray, np.ndarray]:
    """Execute one chase step in place (lines 16–22 of Algorithm IV.2)."""
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


def chase_all(b_mat: np.ndarray, b: int, h: int) -> np.ndarray:
    """Every chase step of band ``b`` → ``h``, one at a time, in place."""
    for step in chase_steps(b_mat.shape[0], b, h):
        apply_chase_step(b_mat, step)
    return b_mat


def band_reduce_seq(a: np.ndarray, b: int, h: int) -> np.ndarray:
    """Reduce a symmetric band-``b`` matrix to band-width ``h`` (dense I/O).

    Sequential reference implementation of Algorithm IV.2: same eigenvalues,
    band-width ``h`` on exit.
    """
    a = check_symmetric(a).copy()
    for wave in sbr.chase_waves(a.shape[0], b, h):
        sbr.apply_chase_step(a, wave)
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
        u, t, r = householder.compact_wy_qr_general(a[r0:, c0 : c0 + w])
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
