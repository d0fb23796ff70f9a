"""Eigenvalues of symmetric tridiagonal matrices, from scratch.

**Sturm-sequence bisection** — the inertia count ``ν(x)`` (#eigenvalues
below x) from the sign changes of the Sturm sequence, then bisection of
all n eigenvalue brackets at once.  Brackets that are equal — all n at the
start, a few per eigenvalue cluster for many sweeps after — are bisected
once: one recurrence pass over the rows counts every midpoint the next k
bisection levels could visit in each *distinct* bracket (*multisection*:
k levels per pass, more of them the fewer distinct brackets there are),
and each eigenvalue then walks its own path down its bracket's tree; the
walk takes exactly the steps one-level-per-sweep bisection takes, on the
same floats, so the spectra are bit-identical to it.  The recurrence runs
unguarded, two ufunc calls per row, and falls back to the LAPACK tiny-pivot
guard only from a block's first tiny pivot on, which changes no count.
The tests validate it against ``scipy.linalg.eigh_tridiagonal`` and a
textbook scalar recurrence with one level per sweep and a guard on every
row (``tests/sturm_oracle.py``).

The paper delegates this final step to "one processor computes its
eigenvalues" (its cost is O(γ·n³/p + β·n²/p + α) in context); we implement
it rather than calling LAPACK, per the from-scratch ground rules.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.util.validation import safe_range_exponent


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


def _sturm_counter(d: np.ndarray, e: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """``count(xs)``: eigenvalues of tridiag(d, e) strictly below each shift
    of the 1-D array ``xs``.

    The stationary Sturm recurrence ``q_i = (d_i − x) − e_{i-1}²/q_{i-1}``;
    the number of negative q_i equals the inertia below x (Sylvester).  A
    pivot with ``|q_i| < g_i = safmin + ε·(|d_i| + √e²_{i-1})`` is nudged to
    ``−g_i`` so the next division stays finite (the LAPACK dstebz
    safeguard).  Everything that does not depend on the shifts — e², the
    guards, their Python scalars — is computed here once.

    The rows run in blocks of ≤ 32 K words (so working memory stays O(n)
    however large n·m is), each first as two ufunc calls per row with no
    guard; one test per block then finds the first row with a tiny pivot,
    and only from that row on is the block redone with the guard (three
    more calls per row).  The rows before it are the bits the guarded
    recurrence gives — the guard changes nothing there — so the counts are
    those of guarding every row.  Call ``count`` under
    ``np.errstate(all="ignore")``: a raw row past a tiny pivot may divide
    by zero before its block is redone.
    """
    n = d.size
    e2 = np.concatenate(([0.0], e * e))
    guard = np.finfo(np.float64).tiny + np.finfo(np.float64).eps * (np.abs(d) + np.sqrt(e2))
    guard_max = float(guard.max())
    e2_rows = e2.tolist()
    rows = list(zip(e2_rows, guard.tolist(), (-guard).tolist()))
    d_col, guard_col = d[:, None], guard[:, None]

    def count(xs: np.ndarray) -> np.ndarray:
        m = xs.size
        step = max(1, 2**14 // m)  # pivots and their magnitudes: ≤ 32 K words
        pivots = np.empty((min(step, n), m))  # one row of q per matrix row of a block
        mags = np.empty_like(pivots)
        t = np.empty(m)
        below = np.zeros(m, dtype=np.int64)
        carry = None  # the last pivot row of the previous block
        for lo in range(0, n, step):
            qs = pivots[: min(step, n - lo)]
            np.subtract(d_col[lo : lo + step], xs, out=qs)
            # q_0 = (d_0 − x) − 0/q_{-1}: the matrix's first row divides nothing
            skip = 0 if lo else 1
            prev = carry if lo else qs[0]
            for q, e2i in zip(qs[skip:], e2_rows[lo + skip : lo + step]):
                np.divide(e2i, prev, out=t)
                np.subtract(q, t, out=q)
                prev = q
            # One cheap test against the largest guard, the exact one if it
            # fires; fmin skips the NaN a zero pivot leaves below it.
            mag = np.abs(qs, out=mags[: len(qs)])
            if np.fmin.reduce(mag, axis=None) < guard_max:
                hit = (mag < guard_col[lo : lo + step]).any(axis=1)
                if hit.any():
                    r = int(hit.argmax())
                    np.subtract(d_col[lo + r : lo + step], xs, out=qs[r:])
                    prev = qs[r - 1] if r else carry
                    tiny = np.empty(m, dtype=bool)
                    for i, q in enumerate(qs[r:], lo + r):
                        e2i, gi, neg_gi = rows[i]
                        if i:
                            np.divide(e2i, prev, out=t)
                            np.subtract(q, t, out=q)
                        np.abs(q, out=t)
                        np.less(t, gi, out=tiny)
                        np.putmask(q, tiny, neg_gi)
                        prev = q
            below += (qs < 0.0).sum(axis=0, dtype=np.int32)  # n < 2³¹ rows
            if lo + step < n:
                carry = qs[-1].copy()
        return below

    return count


def _gershgorin(d: np.ndarray, e: np.ndarray) -> tuple[float, float]:
    """An interval guaranteed to contain every eigenvalue of a validated
    (d, e).

    Padded by 1e-12 of its own magnitude, so the bracket (and the bisection
    tolerance derived from it) scales with the matrix; the zero matrix gets
    the degenerate interval (0, 0).
    """
    radius = np.zeros_like(d)
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    lo = float(np.min(d - radius))
    hi = float(np.max(d + radius))
    pad = 1e-12 * max(abs(lo), abs(hi))
    return lo - pad, hi + pad


def _levels_per_pass(u: int) -> int:
    """Bisection levels per recurrence pass over ``u`` distinct brackets:
    the largest k ≥ 1 with u·(2^k − 1) ≤ 512 — 9 at u = 1, 6 at u = 8, 2 up
    to u = 170, 1 from u = 171 up.

    A pass costs two ufunc calls per row whatever its width, so at small
    u the calls, not the arithmetic, are the cost: ≈ 512 shifts per pass
    cost little more than u do.  Past that the arithmetic shows, so from
    u = 171 a pass holds one level.
    """
    return max(1, (512 // u + 1).bit_length() - 1)


def sturm_bisection_eigenvalues(
    d: np.ndarray, e: np.ndarray, tol: float = 0.0, max_iter: int = 128
) -> np.ndarray:
    """All eigenvalues of tridiag(d, e) by Sturm-sequence bisection.

    Bisects all n eigenvalue brackets simultaneously.  Every bracket
    starts as the Gershgorin interval and a *sweep* halves it once, so all
    n have the same width and converge on the same sweep.  ``tol=0``
    iterates to machine-precision-relative brackets.  Raises
    ``RuntimeError`` if ``max_iter`` sweeps do not get there (the default
    leaves a 2× margin over the ~53 a double needs).  A (d, e) whose
    largest entry lies outside :data:`~repro.util.validation.SAFE_RANGE`
    is bisected scaled by a power of two (``tol`` with it), so e² neither
    over- nor underflows; in-range input is not touched.

    One Sturm recurrence pass serves k = :func:`_levels_per_pass` (u)
    sweeps, u the number of *distinct* brackets: the brackets are ordered,
    so equal ones sit side by side, and early on most of them are equal
    (all n at the start, a handful per eigenvalue cluster for many sweeps
    after).  The pass splits each distinct bracket into 2^k leaves by k
    levels of midpoints, each ``0.5 * (lower + upper)`` of its parent
    interval, counts all u·(2^k − 1) of them in one :func:`_sturm_counter`
    call, and walks each eigenvalue down its bracket's tree one level (one
    sweep) at a time, checking the stop after each.  The midpoints on the
    path taken are the floats a one-level sweep would compute, so the
    spectrum, the sweep it stops at and ``max_iter`` are those of plain
    bisection.
    """
    d, e = _validate_tridiag(d, e)
    exp = safe_range_exponent(max(float(np.abs(d).max()), float(np.abs(e).max(initial=0.0))))
    if exp:
        d, e, tol = np.ldexp(d, -exp), np.ldexp(e, -exp), math.ldexp(tol, -exp)
        return np.ldexp(sturm_bisection_eigenvalues(d, e, tol, max_iter), exp)
    n = d.size
    if n == 1:
        return d.copy()
    lo, hi = _gershgorin(d, e)
    eps = np.finfo(np.float64).eps
    stop = max(tol, 4.0 * eps * max(abs(lo), abs(hi), 1e-300))
    target = np.arange(1, n + 1)  # eigenvalue i has ν(x) >= i+1 for x above it
    count_below = _sturm_counter(d, e)
    with np.errstate(all="ignore"):  # the counter redoes what a tiny pivot spoils
        lower, upper = np.full(n, lo), np.full(n, hi)
        new = np.ones(n, dtype=bool)  # where a distinct bracket starts
        sweeps = 0
        while sweeps < max_iter:
            np.not_equal(lower[1:], lower[:-1], out=new[1:])
            new[1:] |= upper[1:] != upper[:-1]
            first = new.nonzero()[0]
            u = first.size
            k = _levels_per_pass(u)
            leaves = 1 << k
            # The tree, one column per distinct bracket and one row per node:
            # level j's 2^j lower edges are ``lows[:2^j]`` and its upper edges
            # ``highs[-2^j:]``.  Its midpoints are the lower edges of the right
            # children, appended as ``lows[2^j:2^(j+1)]``, and the upper edges
            # of the left children, prepended to ``highs`` — so ``lows[1:]`` is
            # every midpoint, in level order, and a right child is 2^j nodes
            # past its left sibling.
            lows = np.empty((leaves, u))
            highs = np.empty((leaves, u))
            lows[0], highs[-1] = lower[first], upper[first]
            for j in range(k):
                a = 1 << j
                mid = lows[a : 2 * a]
                np.add(lows[:a], highs[leaves - a :], out=mid)
                mid *= 0.5
                highs[leaves - 2 * a : leaves - a] = mid
            counts = count_below(lows[1:].ravel())
            # Eigenvalue i walks its bracket's column: if at least i+1
            # eigenvalues are below a midpoint, it is below it (go left),
            # otherwise it goes right.
            path = np.empty((k, n), dtype=np.intp)  # flat node·u + column, after each sweep
            node = new.cumsum()
            node -= 1
            for j in range(k):
                a = 1 << j
                mid = node + (a - 1) * u if j else node  # the node's midpoint, flat in ``counts``
                np.multiply(counts[mid] < target, a * u, out=path[j])
                path[j] += node
                node = path[j]
            lower = lows.ravel()[path]
            # a level-j node's upper edge is (leaves − 2^(j+1))·u past its lower edge
            upper = highs.ravel()[path + np.array([(leaves - (2 << j)) * u for j in range(k)])[:, None]]
            converged = ((upper - lower).max(axis=1)[: max_iter - sweeps] <= stop).nonzero()[0]
            if converged.size:
                j = converged[0]
                return 0.5 * (lower[j] + upper[j])
            sweeps += k
            lower, upper = lower[-1], upper[-1]
    raise RuntimeError(f"Sturm bisection did not converge in {max_iter} sweeps")
