"""QR factorization of (nearly) square matrices on a processor group.

Substitute for Tiskin's generic-pairwise-elimination QR (Lemma III.5, see
DESIGN.md §7): a panel-recursive CAQR in which each panel is factored by
TSQR (real reduction tree) and the trailing matrix is updated with the
aggregated block reflector, charged as distributed matmuls over the group.
The panel width n/√g makes the measured horizontal cost Θ(n²/√g) — exactly
Lemma III.5 at δ = 1/2, and within a factor g^{δ−1/2} ≤ g^{1/6} (log-factor
territory for the base-case sizes the eigensolvers use) otherwise.

Returns the aggregated compact-WY form ``(U, T, R)`` exactly as
:func:`repro.blocks.tsqr.tsqr` does.
"""

from __future__ import annotations

import numpy as np

from repro.bsp.group import RankGroup
from repro.bsp.kernels import matmul_flops
from repro.bsp.machine import BSPMachine
from repro.bsp.pattern import uniform
from repro.blocks.tsqr import tsqr_factors, tsqr_schedule
from repro.linalg.householder import apply_block_reflector_left


def _charged_trailing_update(
    machine: BSPMachine, group: RankGroup, rows: int, nb: int, cols: int
) -> None:
    """Charge one CAQR trailing update A[rows, cols] ← Qᵖᵀ·A on the group:
    the rows×nb panel (U, T) is broadcast along grid rows, the trailing
    block stays in place — flops 4·rows·nb·cols/g, words (rows+cols)·nb/√g
    per rank, one superstep each for the two thin products."""
    g = group.size
    machine.charge_flops(group, 2.0 * matmul_flops(rows, nb, cols) / g)
    if g > 1:
        per_rank = (rows + cols) * nb / np.sqrt(g)
        machine.charge_comm_batch(group, per_rank, per_rank, pattern=uniform(g))
    machine.superstep(group, 2)
    machine.mem_stream(group[0], float(rows * nb + nb * cols + rows * cols) / g)


def _panel_width(n: int, g: int) -> int:
    """The default panel width n/√g."""
    return max(1, int(np.ceil(n / max(1.0, np.sqrt(g)))))


def square_qr_schedule(
    machine: BSPMachine, group: RankGroup, m: int, n: int, panel: int | None = None
) -> None:
    """The charges of :func:`square_qr` on an m×n matrix, from its shape
    alone: per panel, a TSQR on the group, the trailing update and the
    T-merge."""
    g = group.size
    panel = _panel_width(n, g) if panel is None else panel
    with machine.span("square_qr", group=group):
        for j0 in range(0, n, panel):
            nb = min(panel, n - j0)
            tsqr_schedule(machine, group, m - j0, nb)
            if j0 + nb < n:
                _charged_trailing_update(machine, group, m - j0, nb, n - j0 - nb)
            if j0 > 0:
                machine.charge_flops(group, matmul_flops(j0, m - j0, nb) / g)


def square_qr(
    machine: BSPMachine,
    group: RankGroup,
    a: np.ndarray,
    panel: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Panel-recursive QR of an m×n matrix with m ≤ ~2n on ``group``.

    Returns ``(U, T, R)`` with ``A = (I − U T Uᵀ)E·R`` (U m×n unit lower
    trapezoidal, T n×n upper triangular, R n×n upper triangular).
    """
    a = np.array(np.asarray(a, dtype=np.float64))
    m, n = a.shape
    if m < n:
        raise ValueError(f"square_qr requires m >= n, got {a.shape}")
    machine.check_group(group)
    panel = _panel_width(n, group.size) if panel is None else panel
    square_qr_schedule(machine, group, m, n, panel)

    u = np.zeros((m, n))
    t = np.zeros((n, n))
    for j0 in range(0, n, panel):
        j1 = min(j0 + panel, n)
        nb = j1 - j0
        # Panel QR by TSQR on the group (rank count self-limits to rows/nb).
        up, tp, rp = tsqr_factors(a[j0:, j0:j1], group.size)
        a[j0 : j0 + nb, j0:j1] = rp
        a[j0 + nb :, j0:j1] = 0.0
        # Trailing update A[j0:, j1:] ← Qᵀ A[j0:, j1:] (two thin products).
        if j1 < n:
            a[j0:, j1:] = apply_block_reflector_left(up, tp, a[j0:, j1:], transpose=True)
        # Merge the panel reflectors into the aggregated (U, T).
        u[j0:, j0:j1] = up
        if j0 > 0:
            cross = u[j0:, :j0].T @ up  # cost: free(charged via matmul_flops in square_qr_schedule)
            t[:j0, j0:j1] = -t[:j0, :j0] @ cross @ tp  # cost: free(lower-order T-merge; dominant product charged in square_qr_schedule)
        t[j0:j1, j0:j1] = tp
    r = np.triu(a[:n, :])
    return u, t, r
