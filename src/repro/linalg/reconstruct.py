"""Householder reconstruction (Corollary III.7, after Ballard et al. IPDPS'14).

A reduction-tree QR (TSQR / rect-QR) produces its orthogonal factor as a
tree of reflectors — awkward to aggregate into the two-sided updates of
Section IV.  *Householder reconstruction* recovers a one-level compact-WY
representation from the explicit thin Q:

Given m×n Q with orthonormal columns, choose the diagonal sign matrix S with
``S_ii = −sign(Q_ii)`` (so the top block of ``Y = Q − S̄`` has diagonal of
magnitude ≥ 1, making non-pivoted LU stable), factor ``Y[:n] = U₁ W₁``
(unit-lower × upper), and set

    U = Y W₁⁻¹   (unit lower trapezoidal, U[:n] = U₁),
    T = −W₁ S U₁⁻ᵀ  (upper triangular).

Then the first n columns of ``I − U T Uᵀ`` equal ``Q·S`` exactly.  The sign
flip is benign — ``Q·S`` is an equally valid orthogonal factor with
``(Q·S)ᵀA = S·R`` — but callers must scale R's rows accordingly, so the
signs are returned.
"""
# cost: free-module(sequential numerics; flops charged by repro.bsp.kernels callers)

from __future__ import annotations

import numpy as np

from repro.linalg.lu import invert_unit_lower, invert_upper, modified_lu


def householder_reconstruct(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reconstruct compact-WY form from a thin orthonormal Q.

    Returns ``(U, T, s)`` with U m×n unit lower trapezoidal, T n×n upper
    triangular, and ``s`` the ±1 sign vector such that the first n columns
    of ``I − U T Uᵀ`` equal ``Q · diag(s)``.
    """
    q = np.asarray(q, dtype=np.float64)
    m, n = q.shape
    if m < n:
        raise ValueError(f"householder_reconstruct requires m >= n, got {q.shape}")
    # Modified LU picks the signs during elimination: Q1 − S = U1·W1 with
    # every pivot of magnitude >= 1 (unconditionally stable for orthonormal Q).
    u1, w1, s = modified_lu(q[:n, :])
    y = q.copy()
    y[:n, :] -= np.diag(s)
    u = y @ invert_upper(w1)
    t = np.triu(w1 @ (-np.diag(s)) @ invert_unit_lower(u1).T)
    return u, t, s
