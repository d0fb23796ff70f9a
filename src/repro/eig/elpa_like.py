"""ELPA-like baseline: two-stage reduction (full → band → tridiagonal).

The second row of Table I.  ELPA's structure: a 2-D (c = 1, δ = 1/2)
full-to-band reduction to an intermediate band-width b, then Lang's parallel
band-to-tridiagonal algorithm — trading the direct method's vertical
communication for a second (cheap, banded) reduction stage:

    W = O(n²/√p),   S = O(n log p),   Q folded into F for b = √H.

Reuses this repo's Algorithm IV.1 implementation on a √p×√p×1 grid for the
first stage (with c = 1 and δ = 1/2 it *is* the classic 2-D algorithm) and
the 1-D h = 1 chase pipeline for the second.
"""

from __future__ import annotations

import math

import numpy as np

from repro.bsp.machine import BSPMachine
from repro.dist.banded import DistBandMatrix
from repro.dist.grid import ProcGrid
from repro.eig.ca_sbr import band_to_tridiagonal_1d
from repro.eig.driver import parallel_bisection
from repro.eig.full_to_band import full_to_band_2p5d
from repro.util.validation import check_symmetric, scaled_to_safe_range


def default_elpa_bandwidth(machine: BSPMachine, n: int) -> int:
    """ELPA's rule of thumb: b ≈ √H (band fits the per-rank cache), clamped
    to [2, n/4] and to at least one column block per grid row."""
    h_cache = machine.params.cache_words
    if math.isfinite(h_cache):
        b = int(np.sqrt(h_cache))
    else:
        q = max(1, int(np.sqrt(machine.p)))
        b = max(2, n // (4 * q))
    return int(np.clip(b, 2, max(2, n // 4)))


@scaled_to_safe_range
def eigensolve_elpa_like(
    machine: BSPMachine, a: np.ndarray, b: int | None = None, tag: str = "elpa"
) -> np.ndarray:
    """Eigenvalues via the two-stage (ELPA-style) pipeline."""
    a = check_symmetric(a, "A")
    n = a.shape[0]
    p = machine.p
    if b is None:
        b = default_elpa_bandwidth(machine, n)
    if not 1 <= b < n:
        raise ValueError(f"band-width must be in [1, n-1], got {b}")

    with machine.span(tag):
        # Stage 1: 2-D full-to-band (c = 1 grid).
        q = max(1, int(np.sqrt(p)))
        grid = ProcGrid(machine, (q, q, 1), machine.world.take(q * q))
        banded = full_to_band_2p5d(machine, grid, a, b, tag=f"{tag}:f2b")

        # Stage 2: Lang's band-to-tridiagonal on the full machine.
        band = DistBandMatrix(machine, banded, b, machine.world)
        tri = band_to_tridiagonal_1d(machine, band)

        # Tridiagonal eigenvalues (parallel bisection, as in ScaLAPACK).
        return parallel_bisection(machine, np.diag(tri.data).copy(), np.diag(tri.data, -1).copy())
