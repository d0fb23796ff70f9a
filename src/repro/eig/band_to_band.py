"""Algorithm IV.2: 2.5D band-to-band reduction.

Reduces a symmetric band-``b`` matrix to band-width ``h = b/k`` by pipelined
bulge chasing, where — unlike CA-SBR, which gives each processor a set of
bulge chases — every QR factorization and trailing update is itself executed
by a *processor group* ``Π̂_j`` of ``p̂ = p·b/n`` ranks (line 5: group j
performs chase j of every bulge, as soon as group j−1 has finished chase
j−1 of the previous bulge).

Execution here follows the panel-major linearization of the pipeline (a
valid dependency order — see :mod:`repro.eig.schedule` for the concurrency
structure); each step charges only its own group's ranks, so the aggregated
BSP cost reflects the pipeline's concurrency exactly.

There is one chase loop.  It charges through a
:class:`~repro.bsp.batch.ChargeLog`, which lands the stage in one
order-preserving flush and hands the observers the ordering points it
recorded (the chase spans, each comm charge and barrier) — the loop never
looks at the observers.

Measured costs (Lemma IV.3, k = b/h):
F = O(n²b/p), W = O(n^{1+δ} b^{1−δ}/p^δ), S = O(k^δ n^{1−δ} p^δ/b^{1−δ} ·log p).
"""

from __future__ import annotations

import numpy as np

from repro.bsp.batch import ChargeLog, KernelTape
from repro.bsp.kernels import qr_flops
from repro.bsp.machine import BSPMachine
from repro.blocks.matmul import carma_matmul
from repro.blocks.rect_qr import rect_qr
from repro.dist.banded import DistBandMatrix
from repro.eig.schedule import group_of_step
from repro.linalg.sbr import chase_steps
from repro.linalg.householder import compact_wy_qr_general


def band_to_band_2p5d(
    machine: BSPMachine,
    band: DistBandMatrix,
    k: int = 2,
    tag: str = "b2b",
) -> DistBandMatrix:
    """Reduce a distributed band-``b`` matrix to band-width ``b/k``.

    Returns a new :class:`DistBandMatrix` with band-width ``h = b/k`` over
    the same group.  ``k`` must divide ``b`` (the paper's b mod k ≡ 0).

    Each chase step (lines 16–22) fetches its window, factors it with one
    direct compact-WY QR and updates the band with plain dense products;
    the group-parallel kernels Lemma IV.3 charges — rect-QR on ``qr_group``
    (Π̂_j[1 : ph/n]), CARMA on ``upd_group`` (Π̂_j) — cost by shape and
    group only, so their charges, spans and metrics come from a
    :class:`~repro.bsp.batch.KernelTape`.
    """
    b = band.b
    n = band.n
    if k < 2:
        raise ValueError("k must be >= 2")
    if b % k:
        raise ValueError(f"k={k} must divide the band-width b={b}")
    h = b // k
    group = band.group
    p = group.size
    # ⌈n/b⌉ groups Π̂_j of p̂ = p·b/n ranks each (at least one rank per group;
    # ceil so a ragged final panel gets its own group, matching group_of_step).
    n_groups = max(1, min(p, -(-n // b)))
    subgroups = group.split(n_groups)
    # QR sub-groups: Π̂_j[1 : p·h/n] (line 16).
    qr_size = max(1, (p * h) // n)

    log = ChargeLog(machine)
    tape = KernelTape(log)
    data = band.data
    with machine.span("band_to_band", group=group):
        for step in chase_steps(n, b, h):
            upd_group = subgroups[group_of_step(step, n, b) % n_groups]
            qr_group = upd_group.take(min(qr_size, upd_group.size))
            rows = slice(step.oqr_r, step.oqr_r + step.nr)
            cols = slice(step.oqr_c, step.oqr_c + step.ncols)
            with machine.span("chase_qr", group=qr_group):
                block = band.fetch_window(log, rows, cols, qr_group, tag=f"{tag}:qr_fetch")
                m, ncols = block.shape
                u, t, r = compact_wy_qr_general(block)
                if m >= ncols and qr_group.size > 1:
                    tape.run(rect_qr, qr_group, (block,), tag=f"{tag}:qr")
                else:  # degenerate block: a local QR on the group's root
                    log.charge_flops(qr_group[0], qr_flops(max(m, ncols), min(m, ncols)))
                    log.superstep(qr_group, 1)
                out = np.zeros_like(block)
                out[: r.shape[0], :] = r
                band.store_window(log, rows, cols, out, qr_group)

            if step.nc <= 0:
                continue
            up = slice(step.oup_c, step.oup_c + step.nc)
            with machine.span("chase_update", group=upd_group):
                bup = band.fetch_window(log, up, rows, upd_group, tag=f"{tag}:upd_fetch")
                # Lines 19–20: W = B[Iup, Iqr]·U·T;  V = −W + ½U(Tᵀ(Uᵀ W[Iv])).
                # These products are charged through CARMA (Lemma III.2), exactly
                # as Lemma IV.3's proof invokes it — for these outer shapes CARMA
                # splits both operands, beating any pattern that replicates U to
                # the whole group.
                ut = u @ t  # cost: free(charged via the carma tape on the next line)
                tape.run(carma_matmul, upd_group, (u, t))
                w = bup @ ut  # cost: free(charged via the carma tape on the next line)
                tape.run(carma_matmul, upd_group, (bup, ut))
                v = -w
                vrows = slice(step.ov, step.ov + step.nr)
                inner = u.T @ w[vrows, :]  # cost: free(charged via the carma tape on the next line)
                tape.run(carma_matmul, upd_group, (u.T, w[vrows, :]))
                v[vrows, :] += 0.5 * (u @ (t.T @ inner))  # cost: free(charged via charge_flops on the next line)
                log.charge_flops(upd_group, 2.0 * u.size * t.shape[0] / upd_group.size)
                # Lines 21–22: two-sided rank-2h update of the window (both
                # triangles; the overlap block B[Iqr, Iqr] accumulates UVᵀ AND VUᵀ).
                uvt = u @ v.T  # cost: free(charged via the carma tape on the next line)
                tape.run(carma_matmul, upd_group, (u, v.T))
                data[rows, up] += uvt
                data[up, rows] += uvt.T
                band.charge_store(log, rows, up, upd_group)
        log.flush()

    band.data[:] = (band.data + band.data.T) / 2.0
    return DistBandMatrix(machine, band.data, h, group)
