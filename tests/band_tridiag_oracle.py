"""The b ≥ 6 finish chase as it was before :mod:`repro.linalg.band_tridiag`
ran it in stacked pipeline phases — kept as the bit-for-bit oracle of the
wave chase.

One reflector per step, in panel-major order: for each column i − 1, a
reflector of length ≤ b eliminates it below the subdiagonal, and every b
rows further down another removes the first column of the bulge the
previous one made — each one gemv and one rank-1 update on a b×3b row block
of the symmetric band buffer: slow, and obviously Lang's h = 1 chase.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided


def householder_chase(data: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """(d, e) of the band ``data`` (shape (b+1, n), b ≥ 2, b < n)."""
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
