"""2.5D square QR: a left-looking CAQR with replicated aggregates.

Closes the gap documented in DESIGN.md §7: :mod:`repro.blocks.square_qr`
is a 2-D panel CAQR (Lemma III.5 at δ = 1/2 only).  This variant applies
the same mechanism Algorithm IV.1 uses for the *two-sided* reduction to the
one-sided QR:

* the matrix and the aggregated reflector panels U live replicated on the
  c layers of a q×q×c grid;
* the algorithm is **left-looking** — the trailing matrix is never updated;
  each panel is brought up to date on demand with two streaming
  multiplications against the replicated aggregate
  (``panel ← panel − U·(Tᵀ·(Uᵀ·panel))``), so per panel the horizontal
  traffic is O((j₀ + m)·nb / p^δ) (Lemma III.3), summing to **O(mn/p^δ)** —
  Lemma III.5's bound for any δ ∈ [1/2, 2/3];
* panels are factored by TSQR + Householder reconstruction and their
  reflectors merged into one aggregated compact-WY pair.

Used as rect-QR's base case when the caller requests δ > 1/2 and the group
factors into a q×q×c grid; the benchmark ablation compares both base cases.
"""

from __future__ import annotations

import numpy as np

from repro.bsp.group import RankGroup
from repro.bsp.machine import BSPMachine
from repro.blocks.streaming import streaming_matmul
from repro.blocks.tsqr import tsqr
from repro.dist.grid import ProcGrid, factor_2p5d


def usable_grid(machine: BSPMachine, group: RankGroup, delta: float) -> ProcGrid | None:
    """Largest q×q×c grid with q²c ≤ |group| matching the requested δ.

    Returns None when nothing better than a single rank fits (callers fall
    back to the 2-D variant).
    """
    for g in range(group.size, 0, -1):
        try:
            q, c = factor_2p5d(g, delta)
        except ValueError:
            continue
        if q >= 2 or (q == 1 and c == 1):
            return ProcGrid(machine, (q, q, c), group.take(q * q * c))
    return None


def square_qr_25d(
    machine: BSPMachine,
    group: RankGroup,
    a: np.ndarray,
    delta: float = 2.0 / 3.0,
    panel: int | None = None,
    tag: str = "sqr25d",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """QR of an m×n matrix (m ≥ n) with 2.5D (replicated) cost structure.

    Returns the aggregated compact-WY form ``(U, T, R)`` exactly like
    :func:`repro.blocks.square_qr.square_qr`.  Falls back to the 2-D
    variant when the group does not factor into a useful q×q×c grid.
    """
    a = np.array(np.asarray(a, dtype=np.float64))
    m, n = a.shape
    if m < n:
        raise ValueError(f"square_qr_25d requires m >= n, got {a.shape}")
    machine.check_group(group)
    grid = usable_grid(machine, group, delta)
    if grid is None or grid.size < 4:
        from repro.blocks.square_qr import square_qr  # late: avoid cycle

        return square_qr(machine, group, a, panel=panel)

    q = grid.shape[0]
    ggroup = grid.group()
    if panel is None:
        # Thin panels: the left-looking streaming updates carry the O(mn/p^δ)
        # volume regardless of nb, while the per-panel TSQR/merge overheads
        # scale with nb² — so nb ≈ n/p^δ keeps them subdominant.
        pdelta = grid.size**delta
        panel = max(1, int(np.ceil(n / pdelta)))

    with machine.span("sqr25d", group=ggroup):
        # Replicate A onto every layer (one fiber allgather).
        share = float(m * n) / (q * q)
        machine.charge_comm_batch(ggroup, share, share)
        machine.superstep(ggroup, 1)
        machine.note_memory(ggroup, 2 * share)

        u = np.zeros((m, n))
        t = np.zeros((n, n))
        for j0 in range(0, n, panel):
            j1 = min(j0 + panel, n)
            nb = j1 - j0
            if j0:
                # Left-looking update of the FULL column block (its top j0 rows
                # become the R block): col ← col − U·(Tᵀ·(Uᵀ·col)), with the
                # aggregate U replicated (two streaming products + a small one).
                col = a[:, j0:j1]
                u_prev = u[:, :j0]
                w1 = streaming_matmul(machine, grid, u_prev.T, col, a_key=(tag, "U"))
                w2 = t[:j0, :j0].T @ w1  # cost: free(charged via charge_flops on the next line)
                machine.charge_flops(ggroup, 2.0 * j0 * j0 * nb / grid.size)
                a[:, j0:j1] = col - streaming_matmul(
                    machine, grid, u_prev, w2, a_key=(tag, "U")
                )
            pan = a[j0:, j0:j1].copy()
            # Panel factorization: TSQR + reconstruction on the whole grid group.
            up, tp, rp = tsqr(machine, ggroup, pan)
            a[j0 : j0 + nb, j0:j1] = rp
            a[j0 + nb :, j0:j1] = 0.0
            # Merge into the aggregate: T12 = −T11 (U_prevᵀ U_p) T22.
            u[j0:, j0:j1] = up
            if j0:
                cross = u[j0:, :j0].T @ up  # cost: free(charged via charge_flops on the next line)
                machine.charge_flops(ggroup, 2.0 * j0 * (m - j0) * nb / grid.size)
                t[:j0, j0:j1] = -t[:j0, :j0] @ cross @ tp  # cost: free(lower-order T-merge; dominant product charged above)
            t[j0:j1, j0:j1] = tp
            # Replicate the new panel of U over the layers.
            rep = float(up.size) / (q * q)
            machine.charge_comm_batch(ggroup, rep, rep)
            machine.superstep(ggroup, 1)
    r = np.triu(a[:n, :])
    return u, t, r
