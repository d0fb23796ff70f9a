"""Checkpoint/restart, invariant guards, and the per-stage retry loop.

The eigensolver driver wraps each pipeline stage (full-to-band, every
band-to-band halving, CA-SBR, the sequential finish) in :func:`run_stage`:

* a :class:`Checkpoint` snapshots the stage's live arrays before the first
  attempt (charged as streamed words + one barrier, visible as a
  ``checkpoint`` span);
* a detected fault (:class:`~repro.faults.errors.FaultDetected`) restores
  the checkpoint, reconfigures after a rank loss via the stage's
  ``on_rank_loss`` callback (shrink the group, re-plan δ), charges an
  exponential backoff in supersteps, and retries — at most
  :data:`STAGE_RETRIES` times;
* exhausted retries, a stage that cannot reconfigure, or zero survivors
  raise :class:`~repro.faults.errors.UnrecoverableFault` naming the span.

Counters never roll back — the machine is monotone by design — so the cost
of every failed attempt, restore, and re-execution stays in the report:
``CostReport.by_span()`` is exactly the resilience overhead, bit-for-bit.

The guards (:func:`guard_band`, :func:`guard_tridiagonal`) turn silent
corruption into typed errors: NaN/Inf screens first (NaN compares False
against any tolerance, so the screens must be explicit), then symmetry and
band-width via the validation oracles, then Frobenius-norm drift — every
stage of the pipeline is an orthogonal similarity, which preserves ‖A‖_F.
"""

from __future__ import annotations

from typing import Callable, Mapping, TypeVar

import numpy as np

from repro.bsp import collectives
from repro.bsp.group import RankGroup
from repro.bsp.machine import BSPMachine
from repro.faults.errors import (
    CorruptData,
    FaultDetected,
    RankFailure,
    UnrecoverableFault,
    current_span,
)
from repro.util.validation import check_banded, check_symmetric, frobenius_norm

T = TypeVar("T")

#: retries per stage before giving up with UnrecoverableFault
STAGE_RETRIES = 2

#: relative tolerance of the Frobenius-norm-preservation guard; numerical
#: drift of the n≲10³ pipelines is ~1e-12, injected flips are ≳2^20
NORM_DRIFT_RTOL = 1e-6


class Checkpoint:
    """A stage-boundary snapshot of live arrays, restorable in place.

    ``arrays`` maps labels to the ndarrays the stage mutates; the snapshot
    copies them and :meth:`restore` writes the copies back *into the same
    objects*, so closures holding the arrays see clean data again.  Both
    directions charge one streamed pass over the data split across
    ``group`` plus a barrier, inside ``checkpoint``/``restore`` spans.
    """

    def __init__(self, machine: BSPMachine, name: str,
                 arrays: Mapping[str, np.ndarray], group: RankGroup):
        self.machine = machine
        self.name = name
        self.group = group
        self._live = dict(arrays)
        with machine.faults.quiesce():
            # cost: free(snapshot traffic charged as streamed words below)
            self._saved = {k: np.array(v, copy=True) for k, v in self._live.items()}
            self.words = float(sum(v.size for v in self._saved.values()))
            if self.words:
                with machine.span("checkpoint", group=group):
                    machine.mem_stream_group(group, self.words / group.size)
                    machine.superstep(group, 1)

    def restore(self) -> None:
        """Write the snapshot back into the live arrays (charged)."""
        for key, live in self._live.items():
            live[...] = self._saved[key]
        if self.words:
            with self.machine.span("restore", group=self.group):
                self.machine.mem_stream_group(self.group, self.words / self.group.size)
                self.machine.superstep(self.group, 1)


# ---------------------------------------------------------------------- #
# invariant guards

def guard_band(machine: BSPMachine, data: np.ndarray, bandwidth: int,
               norm0: float, stage: str, group: RankGroup,
               rtol: float = NORM_DRIFT_RTOL) -> None:
    """Post-stage guard: NaN/Inf, symmetry, band-width, ‖·‖_F drift.

    Charges one sharded sweep over the band plus a one-word agreement
    allreduce, inside a ``guard`` span.
    """
    with machine.span("guard", group=group):
        machine.charge_flops(group, 3.0 * data.size / group.size)
        machine.mem_stream_group(group, float(data.size) / group.size)
        collectives.allreduce(machine, group, 1.0)
        span = current_span(machine)
        if not np.isfinite(data).all():
            raise CorruptData(f"{stage}: non-finite entries in the band",
                              span=span, site=stage)
        try:
            check_symmetric(data, f"{stage} output")
            check_banded(data, bandwidth, f"{stage} output")
        except ValueError as exc:
            raise CorruptData(f"{stage}: {exc}", span=span, site=stage) from exc
        drift = abs(frobenius_norm(data) - norm0)
        if drift > rtol * max(1.0, norm0):
            raise CorruptData(
                f"{stage}: Frobenius norm drifted by {drift:.3g} "
                f"(similarity transforms preserve it)",
                span=span, site=stage,
            )


def guard_tridiagonal(machine: BSPMachine, d: np.ndarray, e: np.ndarray,
                      norm0: float, root: int,
                      rtol: float = NORM_DRIFT_RTOL) -> None:
    """Guard the sequential finish: the tridiagonal (d, e) must be finite
    and carry the band's Frobenius norm (√(Σd² + 2Σe²) = ‖B‖_F)."""
    machine.charge_flops(root, 4.0 * (d.size + e.size))
    machine.mem_stream(root, float(d.size + e.size))
    span = current_span(machine)
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise CorruptData("finish: non-finite tridiagonal entries",
                          span=span, site="finish")
    tri_norm = float(np.sqrt(np.sum(d * d) + 2.0 * np.sum(e * e)))  # cost: free(charged above)
    drift = abs(tri_norm - norm0)
    if drift > rtol * max(1.0, norm0):
        raise CorruptData(
            f"finish: tridiagonal Frobenius norm drifted by {drift:.3g}",
            span=span, site="finish",
        )


def guard_spectrum(machine: BSPMachine, evals: np.ndarray, n: int,
                   root: int) -> None:
    """Final guard: n finite, ascending eigenvalues."""
    machine.charge_flops(root, 2.0 * evals.size)
    span = current_span(machine)
    if evals.shape != (n,) or not np.isfinite(evals).all():
        raise CorruptData("finish: spectrum is incomplete or non-finite",
                          span=span, site="finish")
    if evals.size > 1 and float(np.diff(evals).min()) < -1e-9 * max(1.0, float(np.abs(evals).max())):
        raise CorruptData("finish: spectrum is not ascending",
                          span=span, site="finish")


# ---------------------------------------------------------------------- #
# the retry loop

def run_stage(
    machine: BSPMachine,
    name: str,
    run: Callable[[], T],
    *,
    arrays: Mapping[str, np.ndarray] | None = None,
    group: RankGroup | None = None,
    guard: Callable[[T], None] | None = None,
    on_rank_loss: Callable[[RankGroup], None] | None = None,
) -> T:
    """Execute one pipeline stage with bounded detect–restore–retry.

    ``arrays`` (the live arrays the stage mutates, held by ``group`` —
    default: every rank) are checkpointed before the first attempt.  On a
    machine without a live fault layer nothing can be detected, so the
    stage is just ``run()``: no checkpoint, no guard, no charge.  See the
    module docstring for the semantics.
    """
    faults = machine.faults
    if not faults.enabled:
        return run()
    checkpoint = Checkpoint(machine, name, arrays, group or machine.world) if arrays else None
    attempt = 0
    while True:
        try:
            out = run()
            if guard is not None:
                guard(out)
            return out
        except FaultDetected as exc:
            faults.note_recovery(name, exc)
            survivors = faults.live_group(machine.world)
            if survivors is None:
                raise UnrecoverableFault(
                    f"stage {name!r}: no surviving ranks", span=exc.span
                ) from exc
            if attempt >= STAGE_RETRIES:
                raise UnrecoverableFault(
                    f"stage {name!r}: {STAGE_RETRIES} retries "
                    f"exhausted; last fault: {exc}",
                    span=exc.span,
                ) from exc
            if isinstance(exc, RankFailure) and on_rank_loss is None:
                raise UnrecoverableFault(
                    f"stage {name!r}: cannot reconfigure after rank "
                    f"{exc.rank} failed",
                    span=exc.span,
                ) from exc
            with faults.quiesce():
                with machine.span("recovery", group=survivors):
                    if checkpoint is not None:
                        checkpoint.restore()
                    if isinstance(exc, RankFailure) and on_rank_loss is not None:
                        on_rank_loss(survivors)
                    faults.backoff(attempt, survivors)
            attempt += 1
