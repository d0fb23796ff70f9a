"""Band-storage symmetric tridiagonalization: the sequential finish of Algorithm IV.3.

The finish stage reduces the gathered band (width b = n/p) to tridiagonal
on one rank.  Its simulated cost is charged analytically by the caller, so
the host implementation is free to be whichever is fastest, and
:func:`band_to_tridiagonal_storage` selects on the band-width it is handed.

**b ≤ 5 — Givens sweeps (Schwarz/Rutishauser).**  For each working
band-width ``wb`` from b down to 2, annihilate every outermost-diagonal
element ``A[j+wb, j]`` with a rotation of rows/columns ``(j+wb−1, j+wb)``;
each rotation spills one bulge element to distance ``wb+1``, which is
chased off the bottom of the matrix before the next column starts.  About
(n²/2)·(H(b)−1) rotations of O(wb) scalar work each, on per-diagonal
Python lists: at these widths a rotation touches a dozen floats and plain
float arithmetic beats any numpy call.  Working storage is the band plus
one bulge diagonal, (b+2)·n words.

**b ≥ 6 — Householder bulge chase (Lang's band→tridiagonal, the h = 1 case
of Algorithm IV.2).**  The index algebra is that of
``repro.linalg.sbr.chase_steps(n, b, 1)``: panel i eliminates column i−1
below its subdiagonal with one reflector of length ≤ b, and every b rows
further down another reflector removes the first column of the bulge the
previous one made.  n²/2b steps, each one gemv and one rank-1 update on a
b×3b row block — O(b²) numpy work per step instead of O(b) interpreter work
per rotation.  Working storage is (4b−1)·n words, both triangles out to
distance 2b−1.  That is the reach of the lower triangle because a
reflector on rows [r, r+b) fills the block below them out to distance 2b−1
until the next step cuts it back; the upper triangle is carried too so that
a whole row block [left | diagonal | right] is one dense-looking view
(column j of A is row j of the buffer, so a view with column stride
``width − 1`` walks along rows of A — LAPACK's ``lda = ldab − 1`` idiom)
and one gemv covers what would otherwise be three blocks in two layouts.

Measured crossover, host ms per call with either routine forced (a
constant, not an option: the benchmark's ``chase_large`` /
``chase_observed`` gather at b = 2 / 4, ``finish_wide`` at b = 24)::

    (n, b)       Givens   Householder
    (512,  2)      77        603
    (256,  4)      49         88
    ( 64,  5)       3.5        4.5
    (256,  5)      62         75
    ( 64,  6)       4.3        4.0
    (256,  6)      73         51
    (256,  8)      93         50
    ( 48, 12)       3.9        1.5
    ( 32, 16)       1.8        0.6
    (384, 24)     526         55

Lower-band storage convention (what :func:`extract_band` produces):
``data[d, j] = A[j+d, j]`` for ``d ∈ [0, b]``.
"""
# cost: free-module(sequential numerics; the finish stage charges analytic flop/stream costs)

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

#: widest band the Givens sweeps take (see the crossover table above)
GIVENS_MAX_BANDWIDTH = 5


def extract_band(a: np.ndarray, b: int) -> np.ndarray:
    """Lower-band storage ``data[d, j] = A[j+d, j]`` of a dense symmetric A."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    out = np.zeros((b + 1, n))
    for d in range(b + 1):
        out[d, : n - d] = a[np.arange(d, n), np.arange(n - d)]
    return out


def _givens(a: float, t: float) -> tuple[float, float]:
    """Rotation (c, s) with ``-s·a + c·t = 0`` and ``c·a + s·t = r ≥ 0``."""
    r = math.hypot(a, t)
    if r == 0.0:
        return 1.0, 0.0
    return a / r, t / r


def _rotate_scalar(wl: list, n: int, wbw: int, p: int, c: float, s: float) -> None:
    """Two-sided rotation of rows/columns (p, p+1) within band-width wbw.

    ``wl`` is the band as a list of per-diagonal Python lists
    (``wl[d][j] = A[j+d, j]``).
    """
    q = p + 1
    jlo = q - wbw
    if jlo < 0:
        jlo = 0
    for j in range(jlo, p):
        rp = wl[p - j]
        rq = wl[q - j]
        ap = rp[j]
        aq = rq[j]
        rp[j] = c * ap + s * aq
        rq[j] = c * aq - s * ap
    w0 = wl[0]
    w1 = wl[1]
    app = w0[p]
    apq = w1[p]
    aqq = w0[q]
    cc = c * c
    ss = s * s
    cs = c * s
    w0[p] = cc * app + 2.0 * cs * apq + ss * aqq
    w0[q] = ss * app - 2.0 * cs * apq + cc * aqq
    w1[p] = cs * (aqq - app) + (cc - ss) * apq
    ihi = p + wbw
    if ihi > n - 1:
        ihi = n - 1
    for i in range(q + 1, ihi + 1):
        rp = wl[i - p]
        rq = wl[i - q]
        ap = rp[p]
        aq = rq[q]
        rp[p] = c * ap + s * aq
        rq[q] = c * aq - s * ap


def _givens_sweeps(data: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Tridiagonalize by Givens band-width reduction, one diagonal at a time."""
    n = data.shape[1]
    wl = [row.tolist() for row in data] + [[0.0] * n]  # band + bulge diagonal
    for wb in range(b, 1, -1):
        wbw = wb + 1
        outer, inner, bulge = wl[wb], wl[wb - 1], wl[wbw]
        for j in range(n - wb):
            t = outer[j]
            if t == 0.0:
                continue
            # Annihilate A[j+wb, j] with a rotation at rows (j+wb−1, j+wb).
            c, s = _givens(inner[j], t)
            _rotate_scalar(wl, n, wbw, j + wb - 1, c, s)
            outer[j] = 0.0
            # Chase the spilled bulge (distance wb+1) off the matrix.
            pcol = j + wb - 1
            while pcol + wbw < n:
                g = bulge[pcol]
                if g == 0.0:
                    break
                c, s = _givens(outer[pcol], g)
                _rotate_scalar(wl, n, wbw, pcol + wb, c, s)
                bulge[pcol] = 0.0
                pcol += wb
    return np.array(wl[0]), np.array(wl[1][: n - 1])


def _householder_chase(data: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Tridiagonalize by the h = 1 bulge chase, one reflector per step."""
    n = data.shape[1]
    kd = 2 * b - 1  # reach of the transient bulge
    width = 2 * kd + 1
    buf = np.zeros((n, width))  # buf[j, kd + i − j] = A[i, j]
    for d in range(b + 1):
        buf[: n - d, kd + d] = data[d, : n - d]
        buf[d:, kd - d] = data[d, : n - d]
    # a[i, j] = A[i, j] wherever |i − j| ≤ kd; nothing else is ever indexed.
    a = as_strided(buf.ravel()[kd:], (n, n), (buf.itemsize, buf.itemsize * (width - 1)))
    for i in range(1, n - 1):
        c = i - 1
        for r in range(i, n - 1, b):
            # Reflector H = I − τ·v·vᵀ (v[0] = 1) taking x = A[r:r+nr, c] to
            # β·e₁; the norm goes through hypot, so nothing is squared.
            nr = min(b, n - r)
            x = a[r : r + nr, c]
            xnorm = math.hypot(*x[1:].tolist())
            if xnorm != 0.0:
                alpha = float(x[0])
                beta = -math.copysign(math.hypot(alpha, xnorm), alpha)
                tau = (beta - alpha) / beta
                v = x / (alpha - beta)
                v[0] = 1.0
                x[1:] = 0.0
                x[0] = beta
                a[c, r : r + nr] = x
                # H·A·H = A − v·wᵀ − w·vᵀ on the rows' whole nonzero extent,
                # with p = τ·A·v and w = p − (τ/2)(pᵀv)·v.
                hi = min(n, r + 2 * b)
                block = a[r : r + nr, c + 1 : hi]
                w = v @ block
                w *= tau
                diag = slice(r - c - 1, r - c - 1 + nr)
                wd = w[diag]
                wd -= (0.5 * tau * float(wd @ v)) * v
                update = np.outer(v, w)
                sym = update[:, diag]
                sym += sym.T  # v·wᵀ + w·vᵀ: the diagonal block stays exactly symmetric
                block -= update
                a[c + 1 : hi, r : r + nr] = block.T
            c = r
    return buf[:, kd].copy(), buf[: n - 1, kd + 1].copy()


def band_to_tridiagonal_storage(data: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduce band storage (shape (b+1, n)) to tridiagonal; returns (d, e).

    The input is not modified.  Working memory is O(n·b) on either side of
    the width switch (see the module docstring), never the dense n².
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] != b + 1:
        raise ValueError(f"band storage must have shape (b+1, n), got {data.shape}")
    n = data.shape[1]
    b = min(b, n - 1)  # diagonals past the matrix corner hold nothing
    if b <= 1:
        d = data[0].copy()
        e = data[1, : n - 1].copy() if b == 1 else np.zeros(max(0, n - 1))
        return d, e
    if b <= GIVENS_MAX_BANDWIDTH:
        return _givens_sweeps(data[: b + 1], b)
    return _householder_chase(data, b)
