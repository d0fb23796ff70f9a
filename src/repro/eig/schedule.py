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
which processor group Π̂_j executes each step.  The host executes the same
phases: :func:`repro.linalg.sbr.chase_waves` (re-exported here) hands
:func:`repro.linalg.sbr.apply_chase_step` one phase at a time, and
``schedule_checks`` verifies the footprint rule that makes a phase safe to
run as all its QRs, then all its updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# chase_step_arrays, phase_steps and chase_waves live beside the enumeration
# they vectorize; they are re-exported here with the rest of the schedule
from repro.linalg.sbr import (  # noqa: F401
    ChaseStep,
    chase_step_arrays,
    chase_steps,
    chase_waves,
    phase_steps,
)


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
    steps = chase_steps(n, b, h)
    return [
        PipelinePhase(phase=steps[idx[0]].phase, steps=tuple(steps[s] for s in idx))
        for idx in phase_steps(n, b, h)
    ]


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
      ⌈n/b⌉ group count exists to preserve);
    * ``waves_two_stage_safe``: a phase may run as all its QRs, then all its
      updates (what :func:`repro.linalg.sbr.apply_chase_step` does).  For
      same-phase steps A before B in panel order, B's QR cells miss A's
      update window, and QR cells and update windows are each pairwise
      disjoint — mirrors included, so each step's footprint is symmetric.
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
    return {
        "phases_disjoint": disjoint, "bulge_handoff": handoff, "groups_disjoint": groups_ok,
        "waves_two_stage_safe": _waves_two_stage_safe(n, b, h),
    }


def _waves_two_stage_safe(n: int, b: int, h: int) -> bool:
    """The footprint rule of :func:`schedule_checks`, one phase at a time.

    A step's QR touches rows×cols and its mirror; its update reads and
    writes rows×window and window×rows.  Each footprint is two rectangles,
    (r0, r1, c0, c1) half-open, so two footprints meet iff one rectangle of
    each overlaps.
    """
    arr = chase_step_arrays(n, b, h)
    rows = np.stack([arr["oqr_r"], arr["oqr_r"] + arr["nr"]], axis=1)
    cols = np.stack([arr["oqr_c"], arr["oqr_c"] + arr["ncols"]], axis=1)
    window = np.stack([arr["oup_c"], arr["oup_c"] + arr["nc"]], axis=1)

    def footprint(a: np.ndarray, c: np.ndarray) -> np.ndarray:  # (steps, 2 rects, 4)
        return np.stack([np.concatenate([a, c], axis=1), np.concatenate([c, a], axis=1)], axis=1)

    def meets(x: np.ndarray, y: np.ndarray) -> np.ndarray:  # (steps, steps): x[s] ∩ y[t] ≠ ∅
        x, y = x[:, None, :, None, :], y[None, :, None, :, :]
        hit = ((x[..., 0] < y[..., 1]) & (y[..., 0] < x[..., 1])
               & (x[..., 2] < y[..., 3]) & (y[..., 2] < x[..., 3]))
        return hit.any(axis=(2, 3))

    qr, up = footprint(rows, cols), footprint(rows, window)
    for idx in phase_steps(n, b, h):
        q, u = qr[idx], up[idx]
        later = np.triu(np.ones((idx.size, idx.size), dtype=bool), 1)  # [A, B]: A before B
        others = ~np.eye(idx.size, dtype=bool)
        if ((meets(u, q) & later).any() or (meets(q, q) & others).any()
                or (meets(u, u) & others).any()):
            return False
    return True
