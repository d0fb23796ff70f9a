"""Householder reflections and their compact-WY (blocked) aggregation.

Conventions (LAPACK-compatible):

* An elementary reflector is ``H = I − τ v vᵀ`` with ``v[0] = 1``.
* A product of ``n`` reflectors is ``Q = H₁ H₂ ⋯ Hₙ = I − U T Uᵀ`` where the
  columns of ``U`` (m×n, unit lower trapezoidal) are the reflector vectors
  and ``T`` (n×n) is upper triangular — the representation Section IV of the
  paper aggregates across panels.

The QR factors a matrix or a stack of equal-shape matrices (leading batch
axes) with LAPACK's ``dgeqrf`` — one ``np.linalg.qr(…, mode="raw")`` call,
which runs it item by item — as a real rank would factor its local panel or
chase window; ``T`` is formed from ``(U, τ)`` and the reflectors are never
re-applied.  Item by item a stack gives the bits a 2-D call on that item
gives, which is how the bulge chase factors a whole pipeline phase at once.
Only this local factorization is LAPACK's; every algorithm the paper
contributes is written from scratch.  ``tests/sbr_oracle.py`` keeps the
scalar column-by-column loop as the kernel's numerical reference.
"""
# cost: free-module(sequential numerics; flops charged by repro.bsp.kernels callers)

from __future__ import annotations

import numpy as np

_TINY = np.finfo(np.float64).tiny


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
    x0, tail = v[0], v[1:]
    sigma = np.dot(tail, tail)
    v[0] = 1.0
    scale = 1.0
    if sigma >= _TINY:
        norm_x = np.sqrt(x0 ** 2 + sigma)
    elif tail.any():
        # σ underflowed: reflect x / 2ᵉ with ‖x / 2ᵉ‖∞ ∈ [½, 1), its norm by
        # hypot (nothing squared), and scale β back — v and τ do not depend
        # on the scale; LAPACK's dlarfg rescales too
        scale = np.ldexp(1.0, np.frexp(max(abs(x0), np.abs(tail).max()))[1])
        x0 = x0 / scale
        tail /= scale
        norm_x = np.hypot(x0, np.hypot.reduce(tail))
    else:
        return v, 0.0, float(x0)
    beta = -norm_x if x0 >= 0 else norm_x
    v0 = x0 - beta
    tail /= v0
    return v, float(-v0 / beta), float(beta * scale)


def _compact_wy(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one QR body: ``r = min(m, n)`` reflectors of the (…, m, n)
    matrix or stack ``a``, from one ``dgeqrf`` per item.

    U and R are read off the factor.  ``T = (I + D N)⁻¹ D`` with
    ``D = diag(τ)`` and ``N`` the strictly upper part of ``UᵀU`` — the
    inverse ``dlarft``'s recurrence builds column by column, from one
    ``dgesv`` per item; a τ = 0 reflector gets a zero row and column, as in
    that recurrence.  Every product keeps its per-item shape and strides,
    so item ``k`` of a stack is bit-identical to a 2-D call on ``a[k]``.
    """
    r = min(a.shape[-2:])
    raw, tau = np.linalg.qr(a, mode="raw")
    f = np.swapaxes(raw, -1, -2)  # dgeqrf's (…, m, n) factor: R on and above the diagonal
    below = np.tri(*f.shape[-2:], -1, dtype=bool)
    u = np.where(below[:, :r], f[..., :r], np.eye(len(below), r))
    dn = np.where(below[:r, :r].T, np.swapaxes(u, -1, -2) @ u * tau[..., :, None], np.eye(r))
    t = np.linalg.inv(dn) * tau[..., None, :]
    return u, t, np.where(below[:r], 0.0, f[..., :r, :])


def compact_wy_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Householder QR in compact-WY form.

    Factors an m×n matrix (m ≥ n) as ``A = Q R`` with ``Q = I − U T Uᵀ``.
    ``a`` may carry leading batch axes (…, m, n): each item is factored
    independently, bit-identically to a 2-D call on it.

    Returns ``(U, T, R)``: U is m×n unit lower trapezoidal, T is n×n upper
    triangular, R is n×n upper triangular (each with the batch axes of ``a``).
    """
    a = np.asarray(a, dtype=np.float64)
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
    return _compact_wy(np.asarray(a, dtype=np.float64))


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
