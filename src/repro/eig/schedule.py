"""Bulge-chase pipeline schedule of Algorithm IV.2 (Figure 2).

Panel ``i``'s elimination starts as soon as bulge ``i−1`` has been chased
twice, so chase ``(i, j)`` executes in pipeline *phase* ``j + 2(i−1)``, and
all steps of equal phase run concurrently on their disjoint processor
groups.  Figure 2 of the paper shows phases 5 and 6 for k = 2:
``{(3,1), (2,3), (1,5)}`` then ``{(3,2), (2,4), (1,6)}``.

This module derives the schedule from the shared
:func:`repro.linalg.sbr.chase_steps` enumeration (so the diagram is provably
the schedule the reduction actually executes) and computes the quantities
Lemma IV.3's proof reasons about: number of phases, maximum concurrency, and
which processor group Π̂_j executes each step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.linalg.sbr import ChaseStep, chase_steps


@dataclass(frozen=True)
class PipelinePhase:
    """All chase steps executing concurrently in one pipeline phase."""

    phase: int
    steps: tuple[ChaseStep, ...]

    @property
    def ij_set(self) -> set[tuple[int, int]]:
        """The (panel, chase) pairs of this phase — Figure 2's labels."""
        return {(s.i, s.j) for s in self.steps}

    @property
    def concurrency(self) -> int:
        return len(self.steps)


def pipeline_schedule(n: int, b: int, h: int) -> list[PipelinePhase]:
    """The full pipeline: one entry per phase, in execution order."""
    buckets: dict[int, list[ChaseStep]] = {}
    for s in chase_steps(n, b, h):
        buckets.setdefault(s.phase, []).append(s)
    return [
        PipelinePhase(phase=ph, steps=tuple(sorted(buckets[ph], key=lambda s: s.i)))
        for ph in sorted(buckets)
    ]


def chase_step_arrays(n: int, b: int, h: int) -> dict[str, np.ndarray]:
    """Vectorized view of :func:`repro.linalg.sbr.chase_steps`.

    Returns one int64 array per :class:`~repro.linalg.sbr.ChaseStep` field
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


def wave_sizes(n: int, b: int, h: int) -> np.ndarray:
    """Concurrent step count of each pipeline phase (phases 1..max, dense).

    ``wave_sizes(...)[ph-1]`` is the width of Figure 2's row ``ph`` — the
    number of disjoint-group chase steps the pipeline runs at once.
    """
    phase = chase_step_arrays(n, b, h)["phase"]
    return np.bincount(phase)[1:]


def group_of_step(step: ChaseStep, n: int, b: int) -> int:
    """Index of the processor group Π̂_j executing a chase step.

    The paper assigns chase j of every bulge to group Π̂_j (line 5); groups
    are indexed 0-based here and wrap if a chase chain is longer than the
    ⌈n/b⌉ available groups (only possible for ragged trailing chains).

    The group count is ⌈n/b⌉, not ⌊n/b⌋: when b does not divide n, the
    ragged trailing panel adds one more chase to each chain, and flooring
    made two *same-phase* steps wrap onto one group — serializing steps the
    schedule proves disjoint (and double-charging that group's ranks).
    """
    n_groups = max(1, -(-n // b))
    return (step.j - 1) % n_groups


def schedule_checks(n: int, b: int, h: int) -> dict[str, bool]:
    """Structural invariants of the schedule (used by tests and benches).

    * steps of one phase touch pairwise-disjoint row windows (they can run
      concurrently without conflicting updates);
    * within a panel, chase j+1 starts exactly where chase j's QR rows began
      (the bulge-handoff invariant derived in :mod:`repro.linalg.sbr`);
    * steps of one phase map to pairwise-distinct processor groups under
      :func:`group_of_step` (no same-phase collision — the invariant the
      ⌈n/b⌉ group count exists to preserve).
    """
    sched = pipeline_schedule(n, b, h)
    disjoint = True
    for ph in sched:
        # Concurrent QR blocks must not overlap (row ranges; columns follow).
        spans = sorted((s.oqr_r, s.oqr_r + s.nr) for s in ph.steps)
        for a, c in zip(spans, spans[1:]):
            if c[0] < a[1]:
                disjoint = False
    handoff = True
    by_panel: dict[int, list[ChaseStep]] = {}
    for s in chase_steps(n, b, h):
        by_panel.setdefault(s.i, []).append(s)
    for steps in by_panel.values():
        steps.sort(key=lambda s: s.j)
        for s0, s1 in zip(steps, steps[1:]):
            if s1.oqr_c != s0.oqr_r:
                handoff = False
    groups_ok = True
    for ph in sched:
        gids = [group_of_step(s, n, b) for s in ph.steps]
        if len(set(gids)) != len(gids):
            groups_ok = False
    return {"phases_disjoint": disjoint, "bulge_handoff": handoff, "groups_disjoint": groups_ok}
