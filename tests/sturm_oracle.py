"""The Sturm recurrence as it was before ``repro.linalg.tridiag`` hoisted
its loop invariants and counted several bisection levels per pass — kept
as the bit-for-bit oracle of the lean one, with the Gershgorin bracket
both bisect from.

Per row and per sweep it recomputes e², the pivot guard and the sign count
with fresh temporaries, and it bisects one level per sweep: slow, and
obviously the textbook algorithm.
"""

from __future__ import annotations

import numpy as np

from repro.linalg import tridiag


def gershgorin_interval(d: np.ndarray, e: np.ndarray) -> tuple[float, float]:
    """The solver's padded Gershgorin bracket of tridiag(d, e), after its
    input checks."""
    return tridiag._gershgorin(*tridiag._validate_tridiag(d, e))


def count_below(d: np.ndarray, e: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """#eigenvalues of tridiag(d, e) strictly below each shift in ``xs``."""
    e2 = np.concatenate(([0.0], e * e))
    count = np.zeros(xs.shape, dtype=np.int64)
    q = np.full(xs.shape, 1.0)
    eps = np.finfo(np.float64).eps
    safmin = np.finfo(np.float64).tiny
    for i in range(d.size):
        q = (d[i] - xs) - e2[i] / q
        tiny = np.abs(q) < safmin + eps * (abs(d[i]) + np.sqrt(e2[i]))
        q = np.where(tiny, -safmin - eps * (abs(d[i]) + np.sqrt(e2[i])), q)
        count += (q < 0.0).astype(np.int64)
    return count


def bisection_eigenvalues(
    d: np.ndarray, e: np.ndarray, tol: float = 0.0, max_iter: int = 128
) -> np.ndarray:
    """All eigenvalues by simultaneous bisection over :func:`count_below`,
    one level per sweep, with the solver's ``tol`` / ``max_iter`` contract."""
    n = d.size
    if n == 1:
        return d.copy()
    lo, hi = gershgorin_interval(d, e)
    lower = np.full(n, lo)
    upper = np.full(n, hi)
    scale = max(abs(lo), abs(hi), 1e-300)
    target = np.arange(1, n + 1)
    for _ in range(max_iter):
        mid = 0.5 * (lower + upper)
        below = count_below(d, e, mid) >= target
        upper = np.where(below, mid, upper)
        lower = np.where(below, lower, mid)
        if np.max(upper - lower) <= max(tol, 4.0 * np.finfo(np.float64).eps * scale):
            break
    else:
        raise RuntimeError(f"Sturm bisection did not converge in {max_iter} sweeps")
    return 0.5 * (lower + upper)
