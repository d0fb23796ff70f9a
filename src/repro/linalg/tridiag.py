"""Eigenvalues of symmetric tridiagonal matrices by Sturm-sequence bisection.

LAPACK's ``dstebz`` through :mod:`repro.linalg.lapack`: inertia counts
from the Sturm sequence, then bisection of every eigenvalue's bracket — the
kernel ScaLAPACK's ``pdstebz`` splits by eigenvalue index across ranks (a
QR-type ``dsterf`` would not be).  The paper's "one processor computes its
eigenvalues" step; every solver charges it analytically in (n, p), so the
host kernel never shows in a cost report.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.lapack import dstebz
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


def sturm_bisection_eigenvalues(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """All eigenvalues of tridiag(d, e), ascending, by Sturm-sequence
    bisection (``dstebz`` to ε·‖T‖ of the Gershgorin bound).  A (d, e)
    whose largest entry lies outside :data:`~repro.util.validation.SAFE_RANGE`
    is bisected scaled by a power of two, so e² neither over- nor
    underflows.  Raises ``ValueError`` on an empty, mis-shaped or
    non-finite input and ``RuntimeError`` if bisection does not find all n.
    """
    d, e = _validate_tridiag(d, e)
    exp = safe_range_exponent(max(float(np.abs(d).max()), float(np.abs(e).max(initial=0.0))))
    if exp:
        return np.ldexp(sturm_bisection_eigenvalues(np.ldexp(d, -exp), np.ldexp(e, -exp)), exp)
    evals = dstebz(d, e)  # cost: free(every caller charges the finish's bisection analytically)
    if evals.size != d.size:
        raise RuntimeError(f"Sturm bisection found {evals.size} of {d.size} eigenvalues")
    return evals
