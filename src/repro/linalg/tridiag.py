"""Eigenvalues of symmetric tridiagonal matrices, from scratch.

**Sturm-sequence bisection** — the inertia count ``ν(x)`` (#eigenvalues
below x) from the sign changes of the Sturm sequence, then bisection for
every eigenvalue.  Robust, embarrassingly parallel across eigenvalues,
vectorized here across bisection intervals; the tests validate it against
``scipy.linalg.eigh_tridiagonal`` and a textbook scalar recurrence
(``tests/sturm_oracle.py``).

The paper delegates this final step to "one processor computes its
eigenvalues" (its cost is O(γ·n³/p + β·n²/p + α) in context); we implement
it rather than calling LAPACK, per the from-scratch ground rules.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def _validate_tridiag(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d = np.asarray(d, dtype=np.float64).ravel()
    e = np.asarray(e, dtype=np.float64).ravel()
    if d.size == 0:
        raise ValueError("empty tridiagonal matrix")
    if e.size != d.size - 1:
        raise ValueError(f"off-diagonal must have length n-1 = {d.size - 1}, got {e.size}")
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("tridiagonal matrix has non-finite entries")
    return d, e


def _sturm_counter(d: np.ndarray, e: np.ndarray, m: int) -> Callable[[np.ndarray], np.ndarray]:
    """``count(xs)``: eigenvalues of tridiag(d, e) strictly below each shift
    of the length-``m`` array ``xs``.

    The stationary Sturm recurrence ``q_i = (d_i − x) − e_{i-1}²/q_{i-1}``;
    the number of negative q_i equals the inertia below x (Sylvester).  A
    pivot with ``|q_i| < g_i = safmin + ε·(|d_i| + √e²_{i-1})`` is nudged to
    ``−g_i`` so the next division stays finite (the LAPACK dstebz
    safeguard).  Everything that does not depend on the shifts — e², the
    guards, their Python scalars — is computed here once; a sweep is then
    five in-place ufunc calls per row, and the signs are counted once per
    block of retained pivots (blocks of ≤ 32 K words, so working memory
    stays O(n) however large n·m is).
    """
    n = d.size
    e2 = np.concatenate(([0.0], e * e))
    guard = np.finfo(np.float64).tiny + np.finfo(np.float64).eps * (np.abs(d) + np.sqrt(e2))
    rows = list(zip(e2.tolist(), guard.tolist(), (-guard).tolist()))
    step = max(1, 2**15 // max(1, m))
    blocks = [(d[lo : lo + step, None], rows[lo : lo + step]) for lo in range(0, n, step)]
    pivots = np.empty((min(step, n), m))  # one row of q per matrix row of a block
    carry = np.empty(m)  # last pivot row of the previous block (q_{-1} = 1)
    t = np.empty(m)
    tiny = np.empty(m, dtype=bool)

    def count(xs: np.ndarray) -> np.ndarray:
        below = np.zeros(m, dtype=np.int64)
        carry.fill(1.0)
        for d_col, block_rows in blocks:
            qs = pivots[: len(block_rows)]
            np.subtract(d_col, xs, out=qs)
            prev = carry
            for q, (e2i, gi, neg_gi) in zip(qs, block_rows):
                np.divide(e2i, prev, out=t)
                np.subtract(q, t, out=q)
                np.abs(q, out=t)
                np.less(t, gi, out=tiny)
                np.putmask(q, tiny, neg_gi)
                prev = q
            below += (qs < 0.0).sum(axis=0)
            np.copyto(carry, prev)
        return below

    return count


def eigenvalue_count_below(d: np.ndarray, e: np.ndarray, x: np.ndarray | float) -> np.ndarray:
    """Count eigenvalues of tridiag(d, e) strictly below each shift in ``x``.

    Vectorized over shifts; always returns an array (shape ``(1,)`` for a
    scalar ``x``).  See :func:`_sturm_counter` for the recurrence.
    """
    d, e = _validate_tridiag(d, e)
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    return _sturm_counter(d, e, xs.size)(xs.ravel()).reshape(xs.shape)


def gershgorin_interval(d: np.ndarray, e: np.ndarray) -> tuple[float, float]:
    """Return an interval guaranteed to contain all eigenvalues.

    Padded by 1e-12 of its own magnitude, so the bracket (and the bisection
    tolerance derived from it) scales with the matrix; the zero matrix gets
    the degenerate interval (0, 0).
    """
    d, e = _validate_tridiag(d, e)
    radius = np.zeros_like(d)
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    lo = float(np.min(d - radius))
    hi = float(np.max(d + radius))
    pad = 1e-12 * max(abs(lo), abs(hi))
    return lo - pad, hi + pad


def sturm_bisection_eigenvalues(
    d: np.ndarray, e: np.ndarray, tol: float = 0.0, max_iter: int = 128
) -> np.ndarray:
    """All eigenvalues of tridiag(d, e) by Sturm-sequence bisection.

    Bisects all n eigenvalue brackets simultaneously (vectorized over
    eigenvalue indices).  Every bracket starts as the Gershgorin interval
    and halves once per sweep, so all n have the same width and converge on
    the same sweep.  ``tol=0`` iterates to machine-precision-relative
    brackets.  Raises ``RuntimeError`` if ``max_iter`` sweeps do not get
    there (the default leaves a 2× margin over the ~53 a double needs).
    """
    d, e = _validate_tridiag(d, e)
    n = d.size
    if n == 1:
        return d.copy()
    lo, hi = gershgorin_interval(d, e)
    lower = np.full(n, lo)
    upper = np.full(n, hi)
    eps = np.finfo(np.float64).eps
    scale = max(abs(lo), abs(hi), 1e-300)
    target = np.arange(1, n + 1)  # eigenvalue k has ν(x) >= k for x above it
    count_below = _sturm_counter(d, e, n)
    for _ in range(max_iter):
        mid = 0.5 * (lower + upper)
        # If at least k eigenvalues are below mid, eigenvalue k-1 is below mid.
        below = count_below(mid) >= target
        upper = np.where(below, mid, upper)
        lower = np.where(below, lower, mid)
        width = (upper - lower).max()
        if width <= max(tol, 4.0 * eps * scale):
            break
    else:
        raise RuntimeError(f"Sturm bisection did not converge in {max_iter} sweeps")
    return 0.5 * (lower + upper)


def tridiagonal_from_dense(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extract (diagonal, subdiagonal) from a dense tridiagonal matrix."""
    return np.diag(t).copy(), np.diag(t, -1).copy()
