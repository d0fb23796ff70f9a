"""Householder reflections and their compact-WY (blocked) aggregation.

Conventions (LAPACK-compatible):

* An elementary reflector is ``H = I − τ v vᵀ`` with ``v[0] = 1``.
* A product of ``n`` reflectors is ``Q = H₁ H₂ ⋯ Hₙ = I − U T Uᵀ`` where the
  columns of ``U`` (m×n, unit lower trapezoidal) are the reflector vectors
  and ``T`` (n×n) is upper triangular — the representation Section IV of the
  paper aggregates across panels.

The QR factors a matrix or a stack of equal-shape matrices (leading batch
axes): item by item a stack gives the bits a 2-D call on that item gives,
which is how the bulge chase factors a whole pipeline phase at once.
"""
# cost: free-module(sequential numerics; flops charged by repro.bsp.kernels callers)

from __future__ import annotations

import numpy as np


def _reflect(v: np.ndarray) -> tuple:
    """Turn the C-contiguous ``v`` — one vector, or a (…, L) stack of them —
    into reflector vectors in place; return ``(tau, beta, live)``.

    ``live`` marks the vectors with a non-zero tail; the others keep their
    tail and get the identity (τ = 0, β = x₀).

    One vector (a 2-D QR, or a stack of one) gets numpy scalars and a bool
    ``live``, computed with operators: a ufunc call on a numpy scalar costs
    several times an operator, and that overhead is most of a small QR.  A
    stack gets β of shape (…), τ of shape (…, 1) and ``live`` of shape
    (…, 1, 1), which broadcast against :func:`_compact_wy`'s per-item vectors
    and blocks, and the same bits per vector: ``σ`` is one BLAS ``ddot``
    either way (``vecdot`` calls the kernel ``np.dot`` does), and
    ``float_power`` is libm's ``pow`` like the scalar ``x0 ** 2`` (on an
    array ``**`` squares instead, and ``x0 * x0`` differs from ``pow`` in
    the last bit for about one input in a thousand).
    """
    if v.size == v.shape[-1]:
        v = v.reshape(-1)  # a view of the one vector
        tail = v[1:]
        sigma = np.vecdot(tail, tail)
        x0 = v[0]
        v[0] = 1.0
        if sigma == 0.0:
            return 0.0, x0, False
        norm_x = np.sqrt(x0 ** 2 + sigma)
        beta = -norm_x if x0 >= 0 else norm_x
        v0 = x0 - beta
        tail /= v0
        return -v0 / beta, beta, True
    tail = v[..., 1:]
    sigma = np.vecdot(tail, tail)
    x0 = v[..., 0].copy()
    v[..., 0] = 1.0
    live = sigma != 0.0
    norm_x = np.sqrt(np.float_power(x0, 2) + sigma)
    beta = np.where(x0 >= 0, -norm_x, norm_x)
    v0 = x0 - beta
    tau = np.where(live, -v0 / np.where(live, beta, 1.0), 0.0)
    tail /= np.where(live, v0, 1.0)[..., None]
    return tau[..., None], np.where(live, beta, x0), live[..., None, None]


def householder_vector(x: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Compute a Householder reflector annihilating ``x[1:]``.

    Returns ``(v, tau, beta)`` with ``v[0] = 1`` such that
    ``(I − τ v vᵀ) x = (β, 0, …, 0)ᵀ`` and ``|β| = ‖x‖₂``.

    The sign of β is chosen opposite to ``x[0]`` (LAPACK's stable choice) so
    the subtraction ``x[0] − β`` never cancels.  If ``x[1:]`` is zero the
    reflector is the identity (τ = 0, β = x[0]).
    """
    v = np.array(x, dtype=np.float64).ravel()
    if v.size == 0:
        raise ValueError("householder_vector requires a non-empty vector")
    tau, beta, _ = _reflect(v)
    return v, float(tau), float(beta)


def _compact_wy(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one QR body: ``r = min(m, n)`` reflectors of the (…, m, n)
    matrix or stack ``a``, which it overwrites.

    Each product is the 2-D one with leading batch axes, on operands of the
    same per-item shape and strides, so ``vecmat`` / ``matvec`` issue the
    BLAS call ``v @ A`` / ``A @ v`` issues, per item: item ``k`` of the
    result is bit-identical to factoring ``a[k]`` alone.
    """
    *lead, m, n = a.shape
    r = min(m, n)
    u = np.zeros((*lead, m, r))
    t = np.zeros((*lead, r, r))
    ut = np.swapaxes(u, -1, -2)
    for j in range(r):
        v = a[..., j:, j].copy()
        tau, beta, live = _reflect(v)
        # Apply H_j to the trailing columns: A[j:, j:] -= tau v (vᵀ A[j:, j:]),
        # on the live items only (the others' H_j = I; a lone dead vector
        # skips the work, as the scalar loop always did)
        if live is not False:
            trail = a[..., j:, j:]
            step = v[..., :, None] * (tau * np.vecmat(v, trail))[..., None, :]
            np.subtract(trail, step, out=trail, where=live)
        a[..., j, j] = beta
        a[..., j + 1 :, j] = 0.0
        u[..., j:, j] = v
        # Grow T: T[:j, j] = −τ · T[:j,:j] (U[:, :j]ᵀ v);  T[j, j] = τ.
        if j > 0 and live is not False:
            col = -tau * np.matvec(t[..., :j, :j], np.matvec(ut[..., :j, j:], v))
            np.copyto(t[..., :j, j : j + 1], col[..., None], where=live)
        t[..., j, j : j + 1] = tau
    # the loop zeroed every below-diagonal entry of the first r columns and
    # columns r: keep all their rows, so this equals np.triu(a[:r, :])
    return u, t, a[..., :r, :].copy()


def compact_wy_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Householder QR in compact-WY form.

    Factors an m×n matrix (m ≥ n) as ``A = Q R`` with ``Q = I − U T Uᵀ``.
    ``a`` may carry leading batch axes (…, m, n): each item is factored
    independently, bit-identically to a 2-D call on it.

    Returns ``(U, T, R)``: U is m×n unit lower trapezoidal, T is n×n upper
    triangular, R is n×n upper triangular (each with the batch axes of ``a``).
    """
    a = np.array(a, dtype=np.float64)
    m, n = a.shape[-2:]
    if m < n:
        raise ValueError(f"compact_wy_qr requires m >= n, got {a.shape}")
    return _compact_wy(a)


def compact_wy_qr_general(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compact-WY QR of an arbitrary m×n matrix (m < n allowed).

    Uses ``r = min(m, n)`` reflectors.  Returns ``(U, T, R)`` with U of shape
    m×r, T r×r, and R the upper-trapezoidal r×n leading rows of QᵀA.  For
    m ≥ n this agrees with :func:`compact_wy_qr`; leading batch axes are
    handled the same way.

    Needed by bulge chasing near the bottom of the band, where QR blocks can
    be short and wide.
    """
    return _compact_wy(np.array(a, dtype=np.float64))


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
