"""Eigenvalues of symmetric tridiagonal matrices, from scratch.

**Sturm-sequence bisection** — the inertia count ``ν(x)`` (#eigenvalues
below x) from the sign changes of the Sturm sequence, then bisection of
all n eigenvalue brackets at once.  One recurrence pass over the rows
counts every midpoint the next k bisection levels could visit
(*multisection*: k levels per pass, more of them the smaller n is), and
each bracket then walks its own path down that tree; the walk takes
exactly the steps one-level-per-sweep bisection takes, on the same
floats, so the spectra are bit-identical to it.  The tests validate it
against ``scipy.linalg.eigh_tridiagonal`` and a textbook scalar
recurrence with one level per sweep (``tests/sturm_oracle.py``).

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


def _gershgorin(d: np.ndarray, e: np.ndarray) -> tuple[float, float]:
    """:func:`gershgorin_interval` of an already validated (d, e)."""
    radius = np.zeros_like(d)
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    lo = float(np.min(d - radius))
    hi = float(np.max(d + radius))
    pad = 1e-12 * max(abs(lo), abs(hi))
    return lo - pad, hi + pad


def gershgorin_interval(d: np.ndarray, e: np.ndarray) -> tuple[float, float]:
    """Return an interval guaranteed to contain all eigenvalues.

    Padded by 1e-12 of its own magnitude, so the bracket (and the bisection
    tolerance derived from it) scales with the matrix; the zero matrix gets
    the degenerate interval (0, 0).
    """
    return _gershgorin(*_validate_tridiag(d, e))


def _levels_per_pass(n: int) -> int:
    """Bisection levels per recurrence pass: the largest k ≥ 1 with
    n·(2^k − 1) ≤ 512 — 6 at n = 8, 2 up to n = 170, 1 from n = 171 up.

    A pass costs five ufunc calls per row whatever its width, so at small
    n the calls, not the arithmetic, are the cost: ≈ 512 shifts per pass
    cost little more than n do.  Past that the arithmetic shows, so from
    n = 171 a pass holds one level.
    """
    return max(1, (512 // n + 1).bit_length() - 1)


def sturm_bisection_eigenvalues(
    d: np.ndarray, e: np.ndarray, tol: float = 0.0, max_iter: int = 128
) -> np.ndarray:
    """All eigenvalues of tridiag(d, e) by Sturm-sequence bisection.

    Bisects all n eigenvalue brackets simultaneously.  Every bracket
    starts as the Gershgorin interval and a *sweep* halves it once, so all
    n have the same width and converge on the same sweep.  ``tol=0``
    iterates to machine-precision-relative brackets.  Raises
    ``RuntimeError`` if ``max_iter`` sweeps do not get there (the default
    leaves a 2× margin over the ~53 a double needs).

    One Sturm recurrence pass serves k = :func:`_levels_per_pass` sweeps:
    it splits each bracket into 2^k leaves by k levels of midpoints, each
    ``0.5 * (lower + upper)`` of its parent interval, counts all
    n·(2^k − 1) of them in one :func:`_sturm_counter` call, and walks each
    bracket down its tree one level (one sweep) at a time, checking the
    stop after each.  The midpoints on the path taken are the floats a
    one-level sweep would compute, so the spectrum, the sweep it stops at
    and ``max_iter`` are those of plain bisection.
    """
    d, e = _validate_tridiag(d, e)
    n = d.size
    if n == 1:
        return d.copy()
    lo, hi = _gershgorin(d, e)
    eps = np.finfo(np.float64).eps
    stop = max(tol, 4.0 * eps * max(abs(lo), abs(hi), 1e-300))
    k = _levels_per_pass(n)
    leaves = 1 << k
    # The tree, one row of n brackets per node: level j's 2^j lower edges
    # are ``lows[:2^j]`` and its upper edges ``highs[-2^j:]``.  Its
    # midpoints are the lower edges of the right children, appended as
    # ``lows[2^j:2^(j+1)]``, and the upper edges of the left children,
    # prepended to ``highs`` — so ``lows[1:]`` is every midpoint, in level
    # order, and a right child is 2^j nodes past its left sibling.
    lows = np.empty((leaves, n))
    highs = np.empty((leaves, n))
    lows[0], highs[-1] = lo, hi
    nodes = 1 << np.arange(k)
    right = (np.repeat(nodes, nodes) * n)[:, None]  # flat move to a midpoint's right child
    mid_at = ((nodes - 1) * n).tolist()  # flat offset from a level-j node to its midpoint
    high_at = ((leaves - 2 * nodes) * n)[:, None]  # … and from its child to that child's upper edge
    target = np.arange(1, n + 1)  # eigenvalue i has ν(x) >= i+1 for x above it
    brackets = np.arange(n)
    count_below = _sturm_counter(d, e, n * (leaves - 1))
    sweeps = 0
    while sweeps < max_iter:
        for j in range(k):
            a = 1 << j
            mid = lows[a : 2 * a]
            np.add(lows[:a], highs[leaves - a :], out=mid)
            mid *= 0.5
            highs[leaves - 2 * a : leaves - a] = mid
        # If at least i+1 eigenvalues are below a midpoint, eigenvalue i is
        # below it: go left; otherwise go right.
        counts = count_below(lows[1:].ravel()).reshape(leaves - 1, n)
        moves = ((counts < target) * right).ravel()
        path = np.empty((k, n), dtype=np.intp)  # flat node·n + bracket, after each sweep
        node = brackets
        for j in range(k):
            node = path[j] = node + moves[node + mid_at[j]]
        lower = lows.ravel()[path]
        upper = highs.ravel()[path + high_at]
        converged = np.flatnonzero((upper - lower).max(axis=1)[: max_iter - sweeps] <= stop)
        if converged.size:
            j = converged[0]
            return 0.5 * (lower[j] + upper[j])
        sweeps += k
        lows[0], highs[-1] = lower[-1], upper[-1]
    raise RuntimeError(f"Sturm bisection did not converge in {max_iter} sweeps")


def tridiagonal_from_dense(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extract (diagonal, subdiagonal) from a dense tridiagonal matrix."""
    return np.diag(t).copy(), np.diag(t, -1).copy()
