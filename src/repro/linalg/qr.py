"""Sequential QR factorizations built on Householder reflections.

``householder_qr`` is the unblocked kernel; ``blocked_qr`` processes panels
of ``nb`` columns and applies aggregated block reflectors to the trailing
matrix — the sequential analogue of the communication-avoiding structure the
parallel algorithms exploit, and the base case used by all of them.
"""
# cost: free-module(sequential numerics; flops charged by repro.bsp.kernels callers)

from __future__ import annotations

import numpy as np

from repro.linalg.householder import (
    apply_block_reflector_left,
    compact_wy_qr,
    expand_q,
)


def householder_qr(a: np.ndarray, mode: str = "reduced") -> tuple[np.ndarray, np.ndarray]:
    """QR of an m×n matrix with m ≥ n via Householder reflections.

    ``mode='reduced'`` returns (m×n Q, n×n R); ``mode='complete'`` returns
    (m×m Q, m×n R).
    """
    a = np.asarray(a, dtype=np.float64)
    m, n = a.shape
    if m < n:
        raise ValueError(f"householder_qr requires m >= n, got {a.shape}")
    u, t, r = compact_wy_qr(a)
    if mode == "reduced":
        return expand_q(u, t), r
    if mode == "complete":
        q = expand_q(u, t, full=True)
        r_full = np.zeros((m, n))
        r_full[:n, :] = r
        return q, r_full
    raise ValueError(f"unknown mode {mode!r}")


def blocked_qr(a: np.ndarray, nb: int = 32) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blocked Householder QR in compact-WY form.

    Factors A (m×n, m ≥ n) panel by panel; each panel's reflectors are
    aggregated into the global ``(U, T)`` pair so the caller gets one
    ``Q = I − U T Uᵀ`` for the whole factorization.

    Returns ``(U, T, R)`` with U m×n unit lower trapezoidal, T n×n upper
    triangular, R n×n upper triangular.
    """
    a = np.array(a, dtype=np.float64)
    m, n = a.shape
    if m < n:
        raise ValueError(f"blocked_qr requires m >= n, got {a.shape}")
    if nb <= 0:
        raise ValueError("nb must be positive")
    u = np.zeros((m, n))
    t = np.zeros((n, n))
    for j0 in range(0, n, nb):
        j1 = min(j0 + nb, n)
        # Panel factorization.
        up, tp, rp = compact_wy_qr(a[j0:, j0:j1])
        a[j0:j0 + rp.shape[0], j0:j1] = rp
        a[j0 + rp.shape[0]:, j0:j1] = 0.0
        # Trailing update: A[j0:, j1:] = Qpᵀ A[j0:, j1:].
        if j1 < n:
            a[j0:, j1:] = apply_block_reflector_left(up, tp, a[j0:, j1:], transpose=True)
        # Merge (up, tp) into the global (u, t):
        #   Q = Q_prev · Q_p  =>  T_new = [[T_prev, T12], [0, T_p]]
        #   with T12 = −T_prev (U_prevᵀ U_p) T_p.
        u[j0:, j0:j1] = up
        if j0 > 0:
            cross = u[j0:, :j0].T @ up  # U_prevᵀ U_p (only overlapping rows)
            t[:j0, j0:j1] = -t[:j0, :j0] @ cross @ tp
        t[j0:j1, j0:j1] = tp
    r = np.triu(a[:n, :])
    return u, t, r
