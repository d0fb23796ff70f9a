"""Argument validation helpers and cost-free verification oracles.

All public entry points of the library validate their inputs through these
functions so error messages are uniform and tests can assert on them.

This module is the single allowlisted entry point for *reference* numerics
(``tests/test_numerics_charged.py`` exempts it): verification against
numpy oracles must go through :func:`reference_eigenvalues` rather than
calling ``np.linalg.eigvalsh`` inline, so the numerics check can tell
checking from under-counted computing.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np


def check_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is a positive integer; return it as ``int``."""
    if not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return int(value)


def check_delta(delta: float) -> float:
    """Validate the replication exponent δ ∈ [1/2, 2/3] of the 2.5D algorithms."""
    if not 0.5 <= delta <= 2.0 / 3.0 + 1e-12:
        raise ValueError(f"delta must be in [1/2, 2/3], got {delta}")
    return delta


def check_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate that ``a`` is a 2-D square ndarray of floats."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square 2-D, got shape {a.shape}")
    return a


def frobenius_norm(a: np.ndarray) -> float:
    """‖A‖_F as a cost-free host-side oracle.

    Used for relative tolerances here and by the fault layer's
    norm-preservation guards (every pipeline stage is an orthogonal
    similarity, which preserves the Frobenius norm); algorithms that
    *compute* with norms must charge through the machine instead.
    """
    return float(np.linalg.norm(np.asarray(a, dtype=np.float64)))


def check_symmetric(a: np.ndarray, name: str = "matrix", tol: float = 1e-10) -> np.ndarray:
    """Validate that ``a`` is symmetric to within ``tol``, relative to
    ‖A‖_F so badly scaled inputs — entries of order 1e6 or of order 1e-12 —
    are judged by their own magnitude (the exact zero matrix is valid)."""
    a = check_square(a, name)
    if np.abs(a - a.T).max(initial=0.0) > tol * frobenius_norm(a):
        raise ValueError(f"{name} is not symmetric to tolerance {tol}")
    return a


_SAFMIN, _EPS = np.finfo(np.float64).tiny, np.finfo(np.float64).eps
#: LAPACK ``dsyev``'s safe range for max|aᵢⱼ|, [√(safmin/ε), √(ε/safmin)]
#: ≈ [1e-146, 1e146]: inside it no square a reflector norm or the Sturm
#: recurrence forms under- or overflows
SAFE_RANGE = (float(np.sqrt(_SAFMIN / _EPS)), float(np.sqrt(_EPS / _SAFMIN)))


def scaled_to_safe_range(solver):
    """Decorate an eigensolver ``solver(machine, a, …)`` the way ``dsyev``
    guards its input: a finite ``a`` whose largest entry lies outside
    :data:`SAFE_RANGE` is scaled by a power of two to magnitude ~1, and the
    eigenvalues — the returned array, or a result's ``eigenvalues`` — are
    scaled back; a power of two changes no bit of an entry that stays in
    the normal range.  In-range inputs pass through untouched.  The scan, like :func:`check_symmetric`'s, is not charged,
    so simulated costs stay input-independent.
    """

    @functools.wraps(solver)
    def solve(machine, a, *args, **kwargs):
        a = np.asarray(a, dtype=np.float64)
        amax = float(np.maximum(a.max(initial=0.0), -a.min(initial=0.0)))  # NaN-propagating
        if not np.isfinite(amax) or amax == 0.0 or SAFE_RANGE[0] <= amax <= SAFE_RANGE[1]:
            return solver(machine, a, *args, **kwargs)
        exp = int(np.frexp(amax)[1])  # amax = f·2^exp with f ∈ [1/2, 1)
        out = solver(machine, np.ldexp(a, -exp), *args, **kwargs)
        if isinstance(out, np.ndarray):
            return np.ldexp(out, exp)
        return dataclasses.replace(out, eigenvalues=np.ldexp(out.eigenvalues, exp))

    return solve


def check_banded(a: np.ndarray, bandwidth: int, name: str = "matrix", tol: float = 1e-12) -> np.ndarray:
    """Validate that ``a`` has (half) band-width <= ``bandwidth``.

    Band-width ``b`` means ``a[i, j] == 0`` whenever ``|i - j| > b``, the
    convention used throughout the paper.  The tolerance is relative to
    ``max(1, ‖A‖_F)``.
    """
    a = check_square(a, name)
    n = a.shape[0]
    scale = max(1.0, frobenius_norm(a))
    i, j = np.indices((n, n))
    outside = np.abs(i - j) > bandwidth
    if outside.any() and np.abs(a[outside]).max(initial=0.0) > tol * scale:
        raise ValueError(f"{name} has nonzeros outside band-width {bandwidth}")
    return a


def reference_eigenvalues(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Ground-truth ascending spectrum of a symmetric matrix (cost-free).

    Verification-only oracle: it runs on the *host*, charges no simulated
    machine, and must never feed results back into a charged algorithm.
    """
    return np.linalg.eigvalsh(check_symmetric(a, name))


def reference_spectrum_error(a: np.ndarray, eigenvalues: np.ndarray, name: str = "matrix") -> float:
    """``max |λ − λ_numpy|`` of a computed ascending spectrum (cost-free)."""
    ref = reference_eigenvalues(a, name)
    computed = np.asarray(eigenvalues, dtype=np.float64).ravel()
    if computed.shape != ref.shape:
        raise ValueError(f"expected {ref.shape[0]} eigenvalues, got {computed.shape[0]}")
    return float(np.abs(computed - ref).max())


def matrix_bandwidth(a: np.ndarray, tol: float = 1e-12) -> int:
    """Return the smallest b such that ``a[i,j]=0`` for ``|i-j|>b`` (within tol)."""
    a = check_square(a, "matrix")
    n = a.shape[0]
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    for b in range(n - 1, 0, -1):
        # largest offset diagonal with a significant entry
        if max(np.abs(np.diag(a, b)).max(initial=0.0), np.abs(np.diag(a, -b)).max(initial=0.0)) > tol * scale:
            return b
    return 0
