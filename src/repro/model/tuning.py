"""Parameter tuning: choose (δ, c, b) for a machine.

Section V: "the flexibility offered by the parameter c increases the
dimensionality of the tuning space" — large c pays off exactly when the
machine is bandwidth-bound (β ≫ γ) and memory is plentiful.  This module
evaluates Theorem IV.4's cost over the feasible δ range and picks the
minimizer, respecting the per-rank memory limit M ≥ n²/p^{2(1−δ)}.
"""

from __future__ import annotations

from repro.bsp.params import MachineParams
from repro.model.costs import delta_to_c, eigensolver_2p5d_cost
from repro.util.validation import check_positive_int


def delta_grid(samples: int, lo: float = 0.5, hi: float = 2.0 / 3.0) -> list[float]:
    """``samples`` strictly increasing δ values with the endpoints pinned.

    The first and last entries are ``lo`` and ``hi`` *exactly* — not the
    lerp ``lo + (hi - lo) * i / (samples - 1)``, whose float rounding can
    land the last sample just off 2/3 and silently exclude the paper's
    minimum-W endpoint from every sweep.  Interior points interpolate.
    """
    if samples < 2:
        return [lo]
    grid = [lo + (hi - lo) * i / (samples - 1) for i in range(samples)]
    grid[0], grid[-1] = lo, hi
    return grid


def feasible_deltas(n: int, p: int, memory_words: float, samples: int = 33) -> list[float]:
    """δ values in [1/2, 2/3] whose memory footprint fits ``memory_words``."""
    return [
        d
        for d in delta_grid(samples)
        if n * n / p ** (2.0 * (1.0 - d)) <= memory_words
    ]


def predicted_time(n: int, p: int, delta: float, params: MachineParams) -> float:
    """Modeled execution time of Theorem IV.4 at the given δ."""
    return eigensolver_2p5d_cost(n, p, delta, cache_words=params.cache_words).time(params)


def best_delta(n: int, p: int, params: MachineParams) -> tuple[float, float]:
    """Return (δ*, predicted time) minimizing the modeled cost.

    Raises ``ValueError`` if even δ = 1/2 (the 2-D footprint n²/p) does not
    fit in memory — the problem is simply too large for the machine.
    """
    check_positive_int(n, "n")
    check_positive_int(p, "p")
    cands = feasible_deltas(n, p, params.memory_words)
    if not cands:
        raise ValueError(
            f"n={n} does not fit: even c=1 needs {n * n / p:.3g} words/rank, "
            f"machine has {params.memory_words:.3g}"
        )
    # single evaluation per candidate; ties keep the first (smallest) δ
    t_best, best = min((predicted_time(n, p, d, params), d) for d in cands)
    return best, t_best


def replan_delta(n: int, p: int, params: MachineParams) -> float:
    """δ for a machine *degraded* to ``p`` surviving ranks (fault recovery).

    A total variant of :func:`best_delta`: mid-run recovery must come back
    with *some* schedule, so an infeasible memory model or a single
    survivor degrades to δ = 1/2 (the 2-D minimum-memory point) instead of
    raising.
    """
    if p <= 1:
        return 0.5
    try:
        return best_delta(n, p, params)[0]
    except ValueError:
        return 0.5


def tuning_table(n: int, p: int, params: MachineParams, samples: int = 9) -> list[dict]:
    """Sweep δ and report (δ, c, memory, predicted component times)."""
    check_positive_int(n, "n")
    check_positive_int(p, "p")
    rows = []
    for d in delta_grid(samples):
        cost = eigensolver_2p5d_cost(n, p, d, cache_words=params.cache_words)
        rows.append(
            {
                "delta": d,
                "c": delta_to_c(p, d),
                "memory_words": cost.M,
                "fits": cost.M <= params.memory_words,
                "W": cost.W,
                "S": cost.S,
                "time": cost.time(params),
            }
        )
    return rows


def tuning_signature(samples: int = 33) -> dict:
    """Everything a memoized :func:`best_delta` result depends on besides
    its ``(n, p, params)`` key.

    The persistent δ-autotuning cache (:mod:`repro.serve.cache`)
    fingerprints this document: if the δ grid, its sample count, or the
    lemma registry backing the cost expressions changes between versions
    of this repo, every cached plan is stale and must be recomputed.  The
    lemma leading terms are included at both δ endpoints so a change in
    any stage's cost exponents shows up even when the closed-form
    constants stay put.
    """
    from repro.model.costs import LEMMA_STAGES, lemma_leading_terms

    grid = delta_grid(samples)
    return {
        "delta_grid": {"samples": samples, "lo": grid[0], "hi": grid[-1]},
        "lemmas": {
            stage: {
                "lo": lemma_leading_terms(stage, grid[0]),
                "hi": lemma_leading_terms(stage, grid[-1]),
            }
            for stage in LEMMA_STAGES
        },
    }
