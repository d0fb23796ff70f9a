"""Non-pivoted LU factorization.

Corollary III.7 (Householder reconstruction, after Ballard et al. IPDPS'14)
needs an LU factorization *without pivoting* of ``Q₁ − S`` where ``S`` is a
diagonal sign matrix chosen to make the matrix well conditioned for
elimination; no pivoting keeps the factors triangular in the way the
reconstruction formulas require.
"""
# cost: free-module(sequential numerics; flops charged by repro.bsp.kernels callers)

from __future__ import annotations

import numpy as np


def modified_lu(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Modified LU for Householder reconstruction (Ballard et al. IPDPS'14).

    Factors ``A − S = L·U`` where the diagonal sign matrix S is chosen *on
    the fly*: at step k, ``S_kk = −sign(A_kk^{(k)})`` of the current
    (partially eliminated) pivot, so every pivot has magnitude
    ``|A_kk^{(k)}| + 1 ≥ 1``.  For A the top block of a matrix with
    orthonormal columns this is unconditionally stable — the property
    Corollary III.7 relies on.

    Returns ``(L, U, s)`` with L unit lower triangular, U upper triangular,
    and ``s`` the diagonal of S.
    """
    a = np.array(a, dtype=np.float64)
    n, n2 = a.shape
    if n != n2:
        raise ValueError(f"modified_lu requires a square matrix, got {a.shape}")
    s = np.empty(n)
    for k in range(n):
        s[k] = -1.0 if a[k, k] >= 0.0 else 1.0
        a[k, k] -= s[k]
        if k < n - 1:
            a[k + 1 :, k] /= a[k, k]
            a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k], a[k, k + 1 :])
    lo = np.tril(a, -1) + np.eye(n)
    up = np.triu(a)
    return lo, up, s


def solve_unit_lower(lo: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``L X = B`` for unit-lower-triangular L by forward substitution."""
    n = lo.shape[0]
    x = np.array(b, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
        squeeze = True
    else:
        squeeze = False
    for i in range(n):
        x[i] -= lo[i, :i] @ x[:i]
    return x[:, 0] if squeeze else x


def solve_upper(up: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``U X = B`` for upper-triangular U by back substitution."""
    n = up.shape[0]
    x = np.array(b, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
        squeeze = True
    else:
        squeeze = False
    for i in range(n - 1, -1, -1):
        if up[i, i] == 0.0:
            raise ZeroDivisionError(f"singular upper factor at row {i}")
        x[i] = (x[i] - up[i, i + 1 :] @ x[i + 1 :]) / up[i, i]
    return x[:, 0] if squeeze else x


def invert_unit_lower(lo: np.ndarray) -> np.ndarray:
    """Inverse of a unit-lower-triangular matrix."""
    return solve_unit_lower(lo, np.eye(lo.shape[0]))


def invert_upper(up: np.ndarray) -> np.ndarray:
    """Inverse of an upper-triangular matrix."""
    return solve_upper(up, np.eye(up.shape[0]))
