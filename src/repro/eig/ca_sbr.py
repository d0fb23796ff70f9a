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

A halving's charges depend only on (n, b, h) and the column ownership, so
they are computed once for the whole chase schedule
(:func:`repro.linalg.sbr.chase_step_arrays`) and appended to a
:class:`~repro.bsp.batch.ChargeLog` keyed by chase step; the log lands
them in one flush as one ordered block, observed or not.
The numerics then run one pipeline phase at a time
(:func:`repro.linalg.sbr.chase_waves`): each phase is one stacked QR
and one stacked two-sided update, bit-identical to the chase steps in
panel-major order, so the host's execution order moves no charge.

``band_to_tridiagonal_1d`` runs the same machinery with h = 1, which is
Lang's parallel band-to-tridiagonal algorithm — the second stage of the
ELPA baseline.
"""

from __future__ import annotations

import numpy as np

from repro.bsp.batch import ChargeLog
from repro.bsp.kernels import matmul_flops, qr_flops
from repro.bsp.machine import BSPMachine
from repro.bsp.pattern import pairs
from repro.dist.banded import DistBandMatrix
from repro.linalg.sbr import apply_chase_step, chase_step_arrays, chase_waves


def _run_chases_1d(machine: BSPMachine, band: DistBandMatrix, h: int) -> DistBandMatrix:
    """Charge all chase steps with 1-D column ownership and boundary syncs,
    then run them phase by phase."""
    n, b = band.n, band.b
    arr = chase_step_arrays(n, b, h)
    nr, ncols, nc = (arr[f].astype(np.float64) for f in ("nr", "ncols", "nc"))
    step = np.arange(nr.size)
    owner = band._ranks_arr[np.searchsorted(band._col_starts, arr["oqr_c"], side="right") - 1]
    # A bulge crosses to a new owner exactly when the previous step of the
    # same panel had another one (panel-major order keeps panels contiguous).
    hand = np.flatnonzero((arr["i"][1:] == arr["i"][:-1]) & (owner[1:] != owner[:-1])) + 1
    prev, words = owner[hand - 1], nr[hand] * (ncols[hand] + nc[hand])
    log = ChargeLog(machine)
    with machine.span("sbr_halve", group=band.group):
        # Local work on the owner: QR of the (nr × h) block + the window update.
        log.charge_flops(owner, qr_flops(np.maximum(nr, ncols), np.minimum(nr, ncols)), step=step)
        log.charge_flops(owner, 3.0 * matmul_flops(nc, nr, ncols), step=step)
        # Vertical traffic: the working window streams through cache.
        log.mem_stream(owner, nc * nr + nr * ncols, step=step)
        # Boundary crossing: the O(b²) window state is handed over and the
        # pair synchronizes.
        log.charge_comm(prev, words, owner[hand], words, step=hand, pattern=pairs(hand.size))
        log.superstep(np.concatenate([prev, owner[hand]]), 1, step=np.concatenate([hand, hand]))
        log.flush()
    for wave in chase_waves(n, b, h):
        apply_chase_step(band.data, wave)
    band.data[:] = (band.data + band.data.T) / 2.0
    return DistBandMatrix(machine, band.data, h, band.group)


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
