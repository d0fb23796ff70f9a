"""CA-SBR: communication-avoiding successive band reduction (baseline).

The band-halving step of Ballard–Demmel–Knight (Lemma IV.2): a 1-D
parallelization in which each rank owns a contiguous block of n/p̂ columns
and chases whole bulges through its region, synchronizing only with its
neighbours when a bulge crosses an ownership boundary.  Per halving of a
band-width b ≤ n/p this measures

    F = O(n²b/p),  W = O(n b),  Q = O(n²/p),  S = O(p),

(the W and S charges land only on the ranks at each hand-off, so the
per-rank maxima match the lemma).  CA-SBR is both the third row of Table I
(as the band stages of a 2D eigensolver) and stage 3 of Algorithm IV.3.

``band_to_tridiagonal_1d`` runs the same machinery with h = 1, which is
Lang's parallel band-to-tridiagonal algorithm — the second stage of the
ELPA baseline.
"""

from __future__ import annotations

import numpy as np

from repro.bsp.batch import ChargeLog, needs_program_order
from repro.bsp.group import RankGroup
from repro.bsp.kernels import matmul_flops, matmul_flops_arr, qr_flops, qr_flops_arr
from repro.bsp.machine import BSPMachine
from repro.dist.banded import DistBandMatrix
from repro.linalg.sbr import apply_chase_step, chase_steps


def _run_chases_1d_batched(machine: BSPMachine, band: DistBandMatrix, h: int) -> DistBandMatrix:
    """Vectorised emission of :func:`_run_chases_1d`'s charges, for machines
    no observer needs program order on (same charges, one flush).

    Charges are computed from the vectorized schedule arrays and appended
    to a :class:`~repro.bsp.batch.ChargeLog` in the per-step order — per
    step: QR flops, update flops, window stream, then the hand-off
    comm/sync when the bulge crosses an ownership boundary — so the flush
    reproduces the loop's cost report bit-for-bit.  The numerics loop is
    unchanged (identical `apply_chase_step` sequence).
    """
    from repro.eig.schedule import chase_step_arrays

    n, b = band.n, band.b
    group = band.group
    arr = chase_step_arrays(n, b, h)
    nr, ncols, nc = arr["nr"], arr["ncols"], arr["nc"]
    owner = band._ranks_arr[
        np.searchsorted(band._col_starts, arr["oqr_c"], side="right") - 1
    ]
    nrf = nr.astype(np.float64)
    ncolsf = ncols.astype(np.float64)
    ncf = nc.astype(np.float64)
    log = ChargeLog(machine)
    # Per-step flop order (QR then update) per rank: interleave the two
    # per-step streams before the single add.
    qrf = qr_flops_arr(np.maximum(nrf, ncolsf), np.minimum(nrf, ncolsf))
    mmf = 3.0 * matmul_flops_arr(ncf, nrf, ncolsf)
    log.charge_flops(np.repeat(owner, 2), np.column_stack([qrf, mmf]).ravel())
    log.mem_stream(owner, (nc * nr + nr * ncols).astype(np.float64))
    # A hand-off happens exactly when the previous step of the *same panel*
    # had a different owner (panel-major order keeps panels contiguous).
    hand = (arr["i"][1:] == arr["i"][:-1]) & (owner[1:] != owner[:-1])
    if hand.any():
        src = owner[:-1][hand]
        dst = owner[1:][hand]
        words = (nr * (ncols + nc)).astype(np.float64)[1:][hand]
        log.charge_comm(src, words, dst, words)
        log.superstep(np.concatenate([src, dst]), 1)
    log.flush()
    for step in chase_steps(n, b, h):
        apply_chase_step(band.data, step)
    band.data[:] = (band.data + band.data.T) / 2.0
    return DistBandMatrix(machine, band.data, h, group)


def _run_chases_1d(machine: BSPMachine, band: DistBandMatrix, h: int) -> DistBandMatrix:
    """Drive all chase steps with 1-D column ownership and boundary syncs."""
    if not needs_program_order(machine):
        return _run_chases_1d_batched(machine, band, h)
    n, b = band.n, band.b
    group = band.group
    prev_owner: dict[int, int] = {}  # panel index -> owner of its last chase
    with machine.span("sbr_halve", group=group):
        for step in chase_steps(n, b, h):
            owner = band.owner_of_col(step.oqr_c)
            # Local work: QR of the (nr × h) block + the window update.
            machine.charge_flops(owner, qr_flops(max(step.nr, step.ncols), min(step.nr, step.ncols)))
            machine.charge_flops(owner, 3.0 * matmul_flops(step.nc, step.nr, step.ncols))
            # Vertical traffic: the working window streams through cache.
            machine.mem_stream(owner, float(step.nc * step.nr + step.nr * step.ncols))
            # Boundary crossing: if this bulge just moved to a new owner, the
            # O(b²) window state is handed over and the pair synchronizes.
            last = prev_owner.get(step.i)
            if last is not None and last != owner:
                words = float(step.nr * (step.ncols + step.nc))
                machine.charge_comm(sends={last: words}, recvs={owner: words})
                machine.superstep(RankGroup((last, owner)), 1)
            prev_owner[step.i] = owner
            apply_chase_step(band.data, step)
    band.data[:] = (band.data + band.data.T) / 2.0
    return DistBandMatrix(machine, band.data, h, group)


def ca_sbr_halve(machine: BSPMachine, band: DistBandMatrix) -> DistBandMatrix:
    """Halve the band-width (b → ⌈b/2⌉) with CA-SBR's 1-D pipeline."""
    if band.b < 2:
        raise ValueError("band-width must be at least 2 to halve")
    return _run_chases_1d(machine, band, max(1, band.b // 2))


def ca_sbr_reduce(machine: BSPMachine, band: DistBandMatrix, target: int) -> DistBandMatrix:
    """Repeatedly halve until the band-width is at most ``target``."""
    if target < 1:
        raise ValueError("target band-width must be >= 1")
    while band.b > target:
        band = _run_chases_1d(machine, band, max(target, band.b // 2))
    return band


def band_to_tridiagonal_1d(machine: BSPMachine, band: DistBandMatrix) -> DistBandMatrix:
    """Reduce band → tridiagonal in one stage (Lang's algorithm shape).

    Used by the ELPA-like baseline; the direct h = 1 reduction trades the
    multi-stage approach's lower synchronization for fewer stages.
    """
    if band.b <= 1:
        return band
    return _run_chases_1d(machine, band, 1)
