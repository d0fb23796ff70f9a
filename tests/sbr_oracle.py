"""The chase engine as it was before :mod:`repro.linalg.sbr` stacked the
steps of a pipeline phase — kept as the bit-for-bit oracle of the wave
engine.

One chase step at a time, in panel-major order, each a 2-D compact-WY QR
built one reflector at a time from scalar Householder vectors: slow, and
obviously Algorithm IV.2's lines 16–22.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.sbr import ChaseStep, chase_steps


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
