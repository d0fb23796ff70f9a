"""Algorithm IV.1 as it was before :mod:`repro.eig.full_to_band` took its
kernel charges from tapes — kept as the byte-for-byte cost oracle of the
taped stage.

Every panel is factored by a live ``rect_qr`` on the QR sub-grid (TSQR
trees + Householder reconstruction on the real data) and line 9's four
products run through live ``carma_matmul`` recursions, so each charge is
issued by the kernel that incurs it, in program order: slow, and obviously
Lemma IV.1's algorithm.  The taped stage must land on the same per-rank
counters, span events and metrics; its spectrum may differ only at rounding
level (one sequential QR per panel instead of TSQR + reconstruction).
"""

from __future__ import annotations

import numpy as np

from repro.bsp.kernels import qr_flops
from repro.bsp.machine import BSPMachine
from repro.bsp.pattern import grid_fiber
from repro.blocks.matmul import carma_matmul
from repro.blocks.rect_qr import rect_qr
from repro.blocks.streaming import streaming_matmul
from repro.dist.grid import ProcGrid
from repro.eig.full_to_band import grid_delta
from repro.linalg.householder import compact_wy_qr_general
from repro.util.validation import check_symmetric


def full_to_band_2p5d(
    machine: BSPMachine,
    grid: ProcGrid,
    a: np.ndarray,
    b: int,
    w: int | None = None,
    tag: str = "f2b",
) -> np.ndarray:
    """Reduce symmetric ``a`` to band-width ``b``; returns the banded matrix.

    ``grid`` must be q×q×c.  ``w`` is the streaming pipeline depth of
    Algorithm III.1 (defaults to the paper's max(1, b·p^{2−3δ}/n)).
    """
    a = check_symmetric(a, "A")
    n = a.shape[0]
    if grid.ndim != 3 or grid.shape[0] != grid.shape[1]:
        raise ValueError("full_to_band_2p5d requires a q×q×c grid")
    if not 1 <= b < n:
        raise ValueError(f"band-width must be in [1, n-1], got {b}")
    p = grid.size
    q = grid.shape[0]
    delta = grid_delta(grid)
    if w is None:
        w = max(1, int(round(b * p ** (2 - 3 * delta) / n)))

    group = grid.group()
    # Width of the QR sub-grid Π[:, 1:z, :] (paper: z = (b·p^δ/n)^{(1−δ)/δ}).
    pdelta = p**delta
    z = int(np.clip(round((b * pdelta / n) ** ((1 - delta) / delta)), 1, q))
    qr_group = grid.subgrid(slice(0, q), slice(0, z), slice(0, grid.shape[2])).group()

    with machine.span("full_to_band", group=group):
        # Initial replication of A onto every layer: one allgather over fibers,
        # after which each rank holds its n²/q² layer-local share (Lemma IV.1).
        share = float(n * n) / (q * q)
        with machine.span("replicate", group=group):
            if p > 1:
                machine.charge_comm_batch(group, share, share, pattern=grid_fiber(grid))
                machine.superstep(group, 1)
        machine.note_memory(group, 3 * share)  # A + U + V replicas

        bmat = np.zeros((n, n))
        # Aggregated update panels U, V, written in place into preallocated
        # buffers; the first m_cols columns are live.  (Re-stacking the whole
        # aggregate every panel was O(n³/b) pure copying at scale.)
        u_buf = np.zeros((n, n))
        v_buf = np.zeros((n, n))
        m_cols = 0

        c0 = 0
        while n - c0 > b:
            nbar = n - c0
            m_agg = m_cols
            u_glob = u_buf[:, :m_cols]
            v_glob = v_buf[:, :m_cols]

            # ---- line 5: left-looking update of the current panel ------------
            panel = a[c0:, c0 : c0 + b].copy()
            if m_agg:
                with machine.span("panel_update", group=group):
                    panel += streaming_matmul(
                        machine, grid, u_glob[c0:, :], v_glob[c0 : c0 + b, :].T, w, a_key="Uagg"
                    )
                    panel += streaming_matmul(
                        machine, grid, v_glob[c0:, :], u_glob[c0 : c0 + b, :].T, w, a_key="Vagg"
                    )
            a11 = panel[:b, :]
            a21 = panel[b:, :]

            # ---- lines 6–7: QR of the sub-diagonal panel ----------------------
            with machine.span("panel_qr", group=qr_group):
                if a21.shape[0] >= a21.shape[1]:
                    u1, t1, r1 = rect_qr(machine, qr_group, a21, delta=delta, tag=f"{tag}:qr@{c0}")
                else:
                    # Ragged last panel (rows < b): a single rank factors it.
                    u1, t1, r1 = compact_wy_qr_general(a21)
                    machine.charge_flops(qr_group[0], qr_flops(max(a21.shape), min(a21.shape)))
                    machine.superstep(qr_group, 1)

            # ---- line 8: W = A22·U1 + U2(V2ᵀU1) + V2(U2ᵀU1) -------------------
            a22 = a[c0 + b :, c0 + b :]
            with machine.span("form_W", group=group):
                wmat = streaming_matmul(machine, grid, a22, u1, w, a_key="A")
                if m_agg:
                    x1 = streaming_matmul(
                        machine, grid, v_glob[c0 + b :, :].T, u1, w, a_key="Vagg"
                    )
                    wmat += streaming_matmul(
                        machine, grid, u_glob[c0 + b :, :], x1, w, a_key="Uagg"
                    )
                    x2 = streaming_matmul(
                        machine, grid, u_glob[c0 + b :, :].T, u1, w, a_key="Uagg"
                    )
                    wmat += streaming_matmul(
                        machine, grid, v_glob[c0 + b :, :], x2, w, a_key="Vagg"
                    )

            # ---- line 9: V1 = ½U1(Tᵀ(U1ᵀ(W T))) − W T --------------------------
            with machine.span("form_V1", group=group):
                y = carma_matmul(machine, group, wmat, t1, charge_redistribution=False)
                z1 = carma_matmul(machine, group, u1.T, y, charge_redistribution=False)
                z2 = carma_matmul(machine, group, t1.T, z1, charge_redistribution=False)
                z3 = carma_matmul(machine, group, u1, z2, charge_redistribution=False)
                v1 = 0.5 * z3 - y
                machine.charge_flops(group, float(v1.size) / p)

            # ---- line 10: replicate U1 and V1 over all layers ------------------
            rep = float(u1.size + v1.size) / (q * q)
            with machine.span("replicate_UV", group=group):
                machine.charge_comm_batch(group, rep, rep, pattern=grid_fiber(grid))
                machine.superstep(group, 1)

            # ---- assemble the banded output ------------------------------------
            bmat[c0 : c0 + b, c0 : c0 + b] = (a11 + a11.T) / 2.0
            rrows = r1.shape[0]
            bmat[c0 + b : c0 + b + rrows, c0 : c0 + b] = r1
            bmat[c0 : c0 + b, c0 + b : c0 + b + rrows] = r1.T

            # ---- append the new panels to the aggregates -----------------------
            width = u1.shape[1]
            u_buf[c0 + b :, m_cols : m_cols + width] = u1
            v_buf[c0 + b :, m_cols : m_cols + width] = v1
            m_cols += width
            machine.note_memory(group, 3 * share + 2.0 * n * m_cols / (q * q))

            c0 += b

        # ---- base case (lines 1–2): apply the aggregate to the tail block -----
        tail = a[c0:, c0:].copy()
        if m_cols:
            with machine.span("tail", group=group):
                tail += streaming_matmul(
                    machine, grid, u_buf[c0:, :m_cols], v_buf[c0:, :m_cols].T, w, a_key="Uagg"
                )
                tail += streaming_matmul(
                    machine, grid, v_buf[c0:, :m_cols], u_buf[c0:, :m_cols].T, w, a_key="Vagg"
                )
        bmat[c0:, c0:] = (tail + tail.T) / 2.0
        return (bmat + bmat.T) / 2.0
