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
of Algorithm IV.2), in stacked pipeline phases.**  The index algebra is
that of ``repro.linalg.sbr.chase_steps(n, b, 1)``: panel i eliminates
column i−1 below its subdiagonal with one reflector of length ≤ b, and
every b rows further down another reflector removes the first column of
the bulge the previous one made.  n²/2b steps, each one gemv and one
rank-1 update on a b×3b row block.  They run in the pipeline phases of
``sbr.chase_waves(n, b, 1)`` — every reflector of a phase, then every
update, with the same-shape steps of a phase (a *run*, 2b − 1 rows and
columns apart) as one strided stack — so a phase of s steps costs the
numpy calls of one step, not s times them.  Each stacked call does per
step what one step alone does (``math.hypot``, a gemv, a dot), so the
result is bit-identical to the one-step-at-a-time loop kept in
``tests/band_tridiag_oracle.py``; where n ≤ 2b every phase is one step.
Working storage is (4b−1)·n words, both triangles out to distance 2b−1.
That is the reach of the lower triangle because a reflector on rows
[r, r+b) fills the block below them out to distance 2b−1 until the next
step cuts it back; the upper triangle is carried too so that a whole row
block [left | diagonal | right] is one dense-looking view (column j of A
is row j of the buffer, so a view with column stride ``width − 1`` walks
along rows of A — LAPACK's ``lda = ldab − 1`` idiom) and one gemv covers
what would otherwise be three blocks in two layouts.

Measured crossover, host ms per call with each routine forced (median of
9 interleaved calls, one BLAS thread, a 2-core x86-64 container; the
switch is a constant, not an option: the benchmark's ``chase_large`` /
``chase_observed`` gather at b = 2 / 4, ``finish_wide`` at b = 24).  The
per-step column is the one-step-at-a-time chase of
``tests/band_tridiag_oracle.py``::

    (n, b)       Givens   Householder   Householder
                            per step       waves
    (512,  2)     166         1530          193
    (256,  4)      94          207           64
    ( 64,  5)       7.5         11.0          9.4
    (256,  5)     116          156           52
    ( 64,  6)       8.3          8.3          8.0
    (256,  6)     107          124           55
    (256,  8)     192          102           52
    ( 48, 12)       8.0          3.1          3.3
    ( 32, 16)       3.8          1.3          1.4
    (384, 24)    1081          115           90

With the waves the crossover sits lower at large n — the chase wins from
b = 4 at n = 256 — but not at n = 64, b = 5 or at b = 2; the switch stays
at 5 because moving it changes the b = 4–5 spectra (rounding level).

Lower-band storage convention (what :func:`extract_band` produces):
``data[d, j] = A[j+d, j]`` for ``d ∈ [0, b]``.
"""
# cost: free-module(sequential numerics; the finish stage charges analytic flop/stream costs)

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from repro.linalg.sbr import chase_waves

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


def _spans(ts: list[int]) -> list[tuple[int, int]]:
    """The maximal runs of consecutive integers in the ascending ``ts``, as
    half-open (lo, hi)."""
    cuts = [i for i in range(1, len(ts)) if ts[i] != ts[i - 1] + 1]
    return [(ts[lo], ts[hi - 1] + 1) for lo, hi in zip([0, *cuts], [*cuts, len(ts)])] if ts else []


@lru_cache(maxsize=64)
def _chase_frames(n: int, b: int) -> tuple[tuple[tuple, ...], ...]:
    """The runs of :func:`~repro.linalg.sbr.chase_waves` (n, b, 1), phase by
    phase, as the views :func:`_householder_chase` takes of its band buffer:
    ``(shape, offset, strides, rows, diag)`` of each run's stack of frames.

    A step's frame is the square A[c:c+size, c:c+size] from its column
    c = r − lag, whose rows r … r+nr and columns c+1 … min(n, r+2b) − 1 are
    the rows' whole nonzero extent (``rows`` and, shifted one left past
    column c, ``diag`` locate the reflector's rows and columns in it).  A
    run of one step is its frame alone, not a stack of one.  Steps with a
    one-row reflector (the identity) are left out.  Cached, as the waves
    are.
    """
    kd = 2 * b - 1
    width = 2 * kd + 1
    # A[i, j] is word kd + i + j·(width − 1) of the buffer
    s0, s1 = 8, 8 * (width - 1)
    phases = []
    for wave in chase_waves(n, b, 1):
        runs = []
        for run in wave:
            if run.nr < 2:
                continue
            c = run.oqr_r - run.lag
            size = min(n - c, run.lag + 2 * b)
            stack = ((run.count,), (run.stride * (s0 + s1),)) if run.count > 1 else ((), ())
            runs.append(((*stack[0], size, size), (kd + c * width) * 8, (*stack[1], s0, s1),
                         slice(run.lag, run.lag + run.nr), slice(run.lag - 1, run.lag - 1 + run.nr)))
        phases.append(tuple(runs))
    return tuple(phases)


def _householder_chase(data: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Tridiagonalize by the h = 1 bulge chase, one pipeline phase at a time.

    The steps are those of ``chase_steps(n, b, 1)`` and run in the phases
    of :func:`~repro.linalg.sbr.chase_waves` (n, b, 1): every reflector of
    a phase first, then every update.  That is panel-major order's result
    because each step's window here is a subset of its ``chase_steps``
    window, for which ``waves_two_stage_safe`` holds.  A run of same-shape
    steps is one strided view of the band buffer (:func:`_chase_frames`),
    and each stacked call does per step the arithmetic of one step alone —
    ``math.hypot`` on the tail, the gemv of ``np.vecmat``, the dot of
    ``np.vecdot`` — so the result is bit-identical to one step at a time
    (``tests/band_tridiag_oracle.py``).
    """
    n = data.shape[1]
    kd = 2 * b - 1  # reach of the transient bulge
    buf = np.zeros((n, 2 * kd + 1))  # buf[j, kd + i − j] = A[i, j]
    for d in range(b + 1):
        buf[: n - d, kd + d] = data[d, : n - d]
        buf[d:, kd - d] = data[d, : n - d]
    for runs in _chase_frames(n, b):
        updates = []
        for shape, offset, strides, rows, diag in runs:
            frames = np.ndarray(shape, float, buf, offset, strides)
            x = frames[..., rows, 0]
            # Reflector H = I − τ·v·vᵀ (v[0] = 1) taking each x = A[r:r+nr, c]
            # to β·e₁; the norm goes through hypot, so nothing is squared.
            # A zero tail needs none: the steps with one split the run.
            live, scalars = [], []
            for t, (alpha, *tail) in enumerate(x.tolist() if x.ndim > 1 else [x.tolist()]):
                xnorm = math.hypot(*tail)
                if xnorm != 0.0:
                    beta = -math.copysign(math.hypot(alpha, xnorm), alpha)
                    tau = (beta - alpha) / beta
                    live.append(t)
                    scalars.append((alpha - beta, beta, tau, 0.5 * tau))
            if x.ndim == 1:  # one step: Python-float scalars, the calls of a step alone
                pieces = [(frames, x, scalars[0])] if live else []
            else:
                pieces, done = [], 0
                for lo, hi in _spans(live):
                    sc = np.array(scalars[done : done + hi - lo])  # a row per step
                    done += hi - lo
                    pieces.append((frames[lo:hi], x[lo:hi], (sc[:, :1], sc[:, 1], sc[:, 2:3], sc[:, 3])))
            for f, xs, (scale, beta, tau, half_tau) in pieces:
                v = xs / scale
                v[..., 0] = 1.0
                xs[..., 1:] = 0.0
                xs[..., 0] = beta
                f[..., 0, rows] = xs
                updates.append((f, rows, diag, v, tau, half_tau))
        for f, rows, diag, v, tau, half_tau in updates:
            # H·A·H = A − v·wᵀ − w·vᵀ on the rows' whole nonzero extent,
            # with p = τ·A·v and w = p − (τ/2)(pᵀv)·v.
            block = f[..., rows, 1:]
            w = np.vecmat(v, block)
            w *= tau
            wd = w[..., diag]
            wd -= (half_tau * np.vecdot(wd, v))[..., None] * v
            update = (w[..., :, None] * v[..., None, :]).swapaxes(-1, -2)  # laid out as the block
            sym = update[..., diag]
            sym += sym.swapaxes(-1, -2).copy()  # v·wᵀ + w·vᵀ: the diagonal block stays exactly symmetric
            block -= update
            f[..., 1:, rows] = block.swapaxes(-1, -2)
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
