"""Householder reflections and their compact-WY (blocked) aggregation.

Conventions (LAPACK-compatible):

* An elementary reflector is ``H = I − τ v vᵀ`` with ``v[0] = 1``.
* A product of ``n`` reflectors is ``Q = H₁ H₂ ⋯ Hₙ = I − U T Uᵀ`` where the
  columns of ``U`` (m×n, unit lower trapezoidal) are the reflector vectors
  and ``T`` (n×n) is upper triangular — the representation Section IV of the
  paper aggregates across panels.
"""
# cost: free-module(sequential numerics; flops charged by repro.bsp.kernels callers)

from __future__ import annotations

import numpy as np


def householder_vector(x: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Compute a Householder reflector annihilating ``x[1:]``.

    Returns ``(v, tau, beta)`` with ``v[0] = 1`` such that
    ``(I − τ v vᵀ) x = (β, 0, …, 0)ᵀ`` and ``|β| = ‖x‖₂``.

    The sign of β is chosen opposite to ``x[0]`` (LAPACK's stable choice) so
    the subtraction ``x[0] − β`` never cancels.
    """
    v = np.array(x, dtype=np.float64).ravel()
    if v.size == 0:
        raise ValueError("householder_vector requires a non-empty vector")
    x0 = v[0]
    tail = v[1:]
    sigma = float(np.dot(tail, tail))
    v[0] = 1.0
    if sigma == 0.0:
        # Already of the desired form; H = I (tau = 0).
        return v, 0.0, float(x0)
    norm_x = np.sqrt(x0 ** 2 + sigma)
    beta = -norm_x if x0 >= 0 else norm_x
    v0 = x0 - beta
    tail /= v0
    tau = -v0 / beta
    return v, float(tau), float(beta)


def compact_wy_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Householder QR in compact-WY form.

    Factors an m×n matrix (m ≥ n) as ``A = Q R`` with ``Q = I − U T Uᵀ``.

    Returns ``(U, T, R)``: U is m×n unit lower trapezoidal, T is n×n upper
    triangular, R is n×n upper triangular.
    """
    a = np.array(a, dtype=np.float64)
    m, n = a.shape
    if m < n:
        raise ValueError(f"compact_wy_qr requires m >= n, got {a.shape}")
    u = np.zeros((m, n))
    t = np.zeros((n, n))
    for j in range(n):
        v, tau, beta = householder_vector(a[j:, j])
        # Apply H_j to the trailing columns: A[j:, j:] -= tau v (vᵀ A[j:, j:])
        if tau != 0.0:
            w = tau * (v @ a[j:, j:])
            a[j:, j:] -= v[:, None] * w
        a[j, j] = beta
        a[j + 1 :, j] = 0.0
        u[j:, j] = v
        # Grow T: T[:j, j] = −τ · T[:j,:j] (U[:, :j]ᵀ v);  T[j, j] = τ.
        if j > 0 and tau != 0.0:
            z = u[j:, :j].T @ v
            t[:j, j] = -tau * (t[:j, :j] @ z)
        t[j, j] = tau
    # the loop zeroed every below-diagonal entry, so the leading block IS
    # upper triangular already — a plain copy equals np.triu bit-for-bit
    r = a[:n, :n].copy()
    return u, t, r


def compact_wy_qr_general(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compact-WY QR of an arbitrary m×n matrix (m < n allowed).

    Uses ``r = min(m, n)`` reflectors.  Returns ``(U, T, R)`` with U of shape
    m×r, T r×r, and R the upper-trapezoidal r×n leading rows of QᵀA.  For
    m ≥ n this agrees with :func:`compact_wy_qr`.

    Needed by bulge chasing near the bottom of the band, where QR blocks can
    be short and wide.
    """
    a = np.array(a, dtype=np.float64)
    m, n = a.shape
    if m >= n:
        return compact_wy_qr(a)
    r = m
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
    # below-diagonal entries of the first r columns were zeroed in the loop
    # and columns r: keep all their rows, so this equals np.triu(a[:r, :])
    return u, t, a[:r, :].copy()


def apply_block_reflector_left(
    u: np.ndarray, t: np.ndarray, c: np.ndarray, transpose: bool = False
) -> np.ndarray:
    """Compute ``Q C`` (or ``Qᵀ C``) for ``Q = I − U T Uᵀ`` without forming Q.

    ``QᵀC = C − U Tᵀ (Uᵀ C)``; cost O(mn·cols), the form used by every
    trailing-matrix update in the paper.
    """
    tm = t.T if transpose else t
    w = u.T @ c
    return c - u @ (tm @ w)


def expand_q(u: np.ndarray, t: np.ndarray, full: bool = False) -> np.ndarray:
    """Materialize the orthogonal factor ``Q = I − U T Uᵀ``.

    With ``full=True`` returns the square m×m Q; otherwise the thin m×n
    first-n-columns block (``n`` = number of reflectors).
    """
    m, n = u.shape
    if full:
        return np.eye(m) - u @ t @ u.T
    # Thin Q = E − U T (Uᵀ E) where E is the first n columns of I_m.
    e = np.eye(m, n)
    return e - u @ (t @ u[:n, :].T)
