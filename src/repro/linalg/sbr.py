"""Successive band reduction (SBR) via bulge chasing.

Algorithm IV.2's index algebra (:func:`chase_steps`, which drives the
parallel stages and the Figure 2 schedule reproduction) and the engine that
applies its steps.  The sequential dense-I/O references of Algorithms IV.1
and IV.2 are ``tests/sbr_oracle.py``.

Index conventions (0-indexed; the paper is 1-indexed):

For reduction from band-width ``b`` to ``h`` (``h | b`` not required, but
``h < b``), panel ``i ∈ [1, ⌈n/h⌉−1]`` and chase ``j ≥ 1``:

* ``oqr_r = i·h + (j−1)·b`` — first row of the QR block,
* ``oqr_c = oqr_r − h`` if j = 1 else ``oqr_r − b`` — first column,
* ``nr = min(n − oqr_r, b)`` — rows in the QR block (``h`` columns),
* ``oup_c = oqr_c + h``, ``nc = min(n − oup_c, h + 3b)`` — update window,
* ``ov = oqr_r − oup_c`` — row offset of the QR block inside the window.

Chase ``j`` exists while ``oqr_r < n``.  (The paper's loop bound
``⌊(n−ih−1)/b⌋`` is off by one in our reading — without the extra chase,
bulge tails near the matrix bottom survive; the tests demonstrate the fixed
bound reduces the band-width exactly.)

The steps execute one pipeline phase (Figure 2's concurrent iterations) at
a time: :func:`apply_chase_step` takes a phase as :class:`ChaseRun` s —
same-shape steps a constant diagonal stride apart, from
:func:`chase_waves` — and runs all their QRs as stacked
:func:`~repro.linalg.householder.compact_wy_qr_general` calls, then all
their window updates as stacked products.  The result is bit-identical to
one step at a time in panel-major order (``tests/sbr_oracle.py``).
"""
# cost: free-module(sequential numerics; flops charged by repro.bsp.kernels callers)

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.linalg.householder import compact_wy_qr_general


@dataclass(frozen=True)
class ChaseStep:
    """One QR elimination + two-sided update of Algorithm IV.2 (0-indexed)."""

    i: int  # panel index (1-based, as in the paper)
    j: int  # chase index within the panel (1-based; j=1 is the elimination)
    oqr_r: int  # first row of the QR block
    oqr_c: int  # first column of the QR block
    nr: int  # rows in the QR block
    ncols: int  # columns in the QR block (h, clipped at matrix edge)
    oup_c: int  # first column of the update window
    nc: int  # width of the update window
    ov: int  # offset of the QR rows inside the update window

    @property
    def phase(self) -> int:
        """Pipeline phase: panel i starts after bulge i−1 is chased twice.

        Steps with equal phase run concurrently in Algorithm IV.2
        (cf. Figure 2: phase 5 = {(3,1), (2,3), (1,5)}).
        """
        return self.j + 2 * (self.i - 1)


def chase_steps(n: int, b: int, h: int) -> list[ChaseStep]:
    """Enumerate all chase steps reducing band-width ``b`` to ``h``.

    Returned in panel-major (sequential) order, which is a valid
    linearization of the paper's pipeline.
    """
    if not 1 <= h < b < n:
        raise ValueError(f"need 1 <= h < b < n, got h={h}, b={b}, n={n}")
    steps: list[ChaseStep] = []
    n_panels = -(-n // h) - 1  # ceil(n/h) − 1
    for i in range(1, n_panels + 1):
        j = 1
        while True:
            oqr_r = i * h + (j - 1) * b
            if oqr_r >= n:
                break
            oqr_c = oqr_r - h if j == 1 else oqr_r - b
            nr = min(n - oqr_r, b)
            ncols = min(h, n - oqr_c)
            oup_c = oqr_c + h
            nc = max(0, min(n - oup_c, h + 3 * b))
            ov = oqr_r - oup_c
            steps.append(
                ChaseStep(i=i, j=j, oqr_r=oqr_r, oqr_c=oqr_c, nr=nr, ncols=ncols, oup_c=oup_c, nc=nc, ov=ov)
            )
            j += 1
    return steps


@dataclass(frozen=True)
class ChaseRun:
    """``count`` chase steps of one pipeline phase with equal shapes, each
    ``stride`` rows *and* columns below the previous one — the unit
    :func:`apply_chase_step` stacks.  Every block a step touches sits at a
    fixed offset from its QR row, so a run's blocks are one strided view of
    the matrix (LAPACK's ``lda`` idiom)."""

    oqr_r: int  # first row of the QR block of the run's topmost step
    lag: int  # oqr_r − oqr_c: h for a panel elimination (j = 1), b after
    count: int
    stride: int  # diagonal distance between consecutive steps (2b − h)
    nr: int
    ncols: int
    nc: int
    ov: int


#: the runs of one pipeline phase
ChaseWave = tuple[ChaseRun, ...]


def chase_step_arrays(n: int, b: int, h: int) -> dict[str, np.ndarray]:
    """Vectorized view of :func:`chase_steps`.

    Returns one int64 array per :class:`ChaseStep` field
    (plus ``phase``), in the same panel-major order — field ``f`` of step
    ``s`` is ``arrays[f][s]``.  The batched chase engines charge whole
    schedules from these arrays instead of looping over step objects;
    equality with the per-step enumeration is pinned by tests.
    """
    if not 1 <= h < b < n:
        raise ValueError(f"need 1 <= h < b < n, got h={h}, b={b}, n={n}")
    n_panels = -(-n // h) - 1  # ceil(n/h) − 1
    i_panel = np.arange(1, n_panels + 1, dtype=np.int64)
    # Chases per panel: the j ≥ 1 with i·h + (j−1)·b < n.
    counts = -(-(n - i_panel * h) // b)
    total = int(counts.sum())
    i_arr = np.repeat(i_panel, counts)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    j_arr = np.arange(total, dtype=np.int64) - np.repeat(starts, counts) + 1
    oqr_r = i_arr * h + (j_arr - 1) * b
    oqr_c = np.where(j_arr == 1, oqr_r - h, oqr_r - b)
    nr = np.minimum(n - oqr_r, b)
    ncols = np.minimum(h, n - oqr_c)
    oup_c = oqr_c + h
    nc = np.maximum(0, np.minimum(n - oup_c, h + 3 * b))
    ov = oqr_r - oup_c
    phase = j_arr + 2 * (i_arr - 1)
    return {
        "i": i_arr, "j": j_arr, "oqr_r": oqr_r, "oqr_c": oqr_c, "nr": nr,
        "ncols": ncols, "oup_c": oup_c, "nc": nc, "ov": ov, "phase": phase,
    }


def phase_steps(n: int, b: int, h: int) -> list[np.ndarray]:
    """The pipeline phases in order, each as the indices (into
    :func:`chase_step_arrays`) of its steps in ascending panel order."""
    phase = chase_step_arrays(n, b, h)["phase"]
    # a stable sort keeps the panel-major order inside each phase
    order = np.argsort(phase, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(phase[order])) + 1)


@lru_cache(maxsize=64)
def chase_waves(n: int, b: int, h: int) -> tuple[ChaseWave, ...]:
    """The phases of :func:`phase_steps` as :class:`ChaseRun`
    tuples — what :func:`apply_chase_step` executes.  Cached: a solve
    derives the same few (n, b, h) schedules every time.

    Consecutive same-phase steps (i, j) and (i + 1, j − 2) are 2b − h rows
    and columns apart, so a phase's steps fall into runs of equal shape
    (block sizes, window offset, QR column lag): the interior chases, the
    panel elimination (lag h) and the few steps clipped by the matrix edge.
    """
    arr = chase_step_arrays(n, b, h)
    arr["lag"] = arr["oqr_r"] - arr["oqr_c"]
    order = np.concatenate(phase_steps(n, b, h))
    # a run starts wherever the phase or a shape field changes
    key = np.stack([arr[f][order] for f in ("phase", "nr", "ncols", "nc", "ov", "lag")])
    start = np.flatnonzero(np.r_[True, (key[:, 1:] != key[:, :-1]).any(axis=0)])
    count = np.diff(np.r_[start, order.size])
    # ascending panel is descending row: a run's last step is its topmost
    top = order[start + count - 1]
    cols = [arr[f][top].tolist() for f in ("phase", "oqr_r", "lag", "nr", "ncols", "nc", "ov")]
    waves: dict[int, list[ChaseRun]] = {}
    for ph, oqr_r, lag, nr, ncols, nc, ov, c in zip(*cols, count.tolist()):
        waves.setdefault(ph, []).append(ChaseRun(
            oqr_r=oqr_r, lag=lag, count=c, stride=2 * b - h, nr=nr, ncols=ncols, nc=nc, ov=ov,
        ))
    return tuple(tuple(runs) for runs in waves.values())


def _frame(m: np.ndarray, run: ChaseRun) -> np.ndarray:
    """Every block the run's steps touch, as one (count, S, S) view of
    ``m``: the square from each step's first QR column ``oqr_r − lag`` on,
    with the 2-D strides inside a step."""
    o = run.oqr_r - run.lag
    size = max(run.lag + run.nr, run.lag - run.ov + run.nc)
    s0, s1 = m.strides
    return as_strided(m[o:, o:], (run.count, size, size), (run.stride * (s0 + s1), s0, s1))


def apply_chase_step(b_mat: np.ndarray, wave: ChaseWave) -> None:
    """Execute one pipeline phase of Algorithm IV.2 in place.

    Two stages, each stacked across the phase: first every step's QR and
    ``[R; 0]`` write (lines 16–17; one :func:`compact_wy_qr_general` call
    per block shape), then every step's two-sided window update (lines
    18–22; one batched update per run).  This equals running the steps one
    at a time in ascending panel order because a step's QR cells are
    disjoint from every earlier step's update window and the update windows
    are pairwise disjoint (``waves_two_stage_safe`` in
    :func:`repro.eig.schedule.schedule_checks`); descending order, or a
    full step at a time in a single stacked pass, would not be.
    """
    # In a step's frame the QR rows start at ``lag``, its columns at 0 and
    # the update window's columns at ``lag − ov``.
    frames = [(run, _frame(b_mat, run), slice(run.lag, run.lag + run.nr)) for run in wave]
    factors = []
    for shape in dict.fromkeys((run.nr, run.ncols) for run in wave):
        group = [(run, f, rows) for run, f, rows in frames if (run.nr, run.ncols) == shape]
        u, t, r = compact_wy_qr_general(np.concatenate([f[:, rows, : run.ncols] for run, f, rows in group]))
        # Lines 17: write [R; 0] and its transpose.
        blk = np.zeros(u.shape[:1] + shape)
        blk[:, : r.shape[1], :] = r
        k = 0
        for run, f, rows in group:
            f[:, rows, : run.ncols] = blk[k : k + run.count]
            f[:, : run.ncols, rows] = blk[k : k + run.count].transpose(0, 2, 1)
            factors.append((run, f, rows, u[k : k + run.count], t[k : k + run.count]))
            k += run.count
    # Lines 18–22: trailing update on the window columns.
    for run, f, rows, u, t in factors:
        up = slice(run.lag - run.ov, run.lag - run.ov + run.nc)
        up_rows, rows_up = f[:, up, rows], f[:, rows, up]
        ut = u.transpose(0, 2, 1)
        w = up_rows @ (u @ t)  # nc×r_ref per step
        v = -w
        vrows = slice(run.ov, run.ov + run.nr)
        v[:, vrows, :] += 0.5 * (u @ (t.transpose(0, 2, 1) @ (ut @ w[:, vrows, :])))
        rows_up += u @ v.transpose(0, 2, 1)
        up_rows += v @ ut
