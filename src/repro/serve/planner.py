"""Per-request planning: how many ranks, and which δ, for one eigenproblem.

The paper's tunable is δ (replication c = p^{2δ−1}); the serving layer adds
one more knob the small-n/large-p literature (Katagiri et al.,
arXiv:2405.00326) shows is decisive: *how many ranks to use at all*.  For a
tiny matrix on a big machine the α·S synchronization term swamps the
parallel flop win, and the modeled optimum walks down from the full grid
through small sub-grids to a single rank — the gather-and-solve-replicated
corner.  :func:`plan_job` sweeps the power-of-two rank counts a pool
machine can offer, picks ``best_delta`` for each via the memoized cache,
and minimizes the modeled Theorem IV.4 time — so regime routing is a
genuine, per-shape scheduling decision, and a cached one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bsp.params import MachineParams
from repro.serve.cache import TuningCache, cache_key, cached_best_delta

#: the solver the plans below are computed for (see repro.eig.SOLVERS)
DEFAULT_ALGORITHM = "eig2p5d"


@dataclass(frozen=True)
class Plan:
    """A planned solve: rank count, δ, and the modeled time they achieve."""

    n: int
    p: int
    delta: float
    predicted_time: float
    algorithm: str = DEFAULT_ALGORITHM


def candidate_ranks(n: int, p_max: int) -> list[int]:
    """Power-of-two rank counts usable for an n×n problem on ≤ p_max ranks.

    Powers of two always admit the q²·c factorization the 2.5D grids need,
    and the driver requires n ≥ p.
    """
    if p_max < 1:
        raise ValueError(f"p_max must be >= 1, got {p_max}")
    out = []
    p = 1
    while p <= min(p_max, n):
        out.append(p)
        p *= 2
    return out


def plan_job(
    cache: TuningCache,
    n: int,
    p_max: int,
    params: MachineParams,
    algorithm: str = DEFAULT_ALGORITHM,
) -> tuple[Plan, bool]:
    """Return ``(plan, was_cache_hit)`` for one (n, p_max, params) shape.

    The composite plan is itself memoized (kind ``plan``) on top of the
    per-(n, p) ``best_delta`` entries, so a warmed cache answers a repeat
    request with a single lookup.  Ties in modeled time break toward fewer
    ranks — a freed rank can serve another queued job.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    key = cache_key("plan", algorithm, n, p_max, params)
    value = cache.get(key)
    if value is not None:
        return (
            Plan(
                n=n,
                p=int(value["p"]),
                delta=float(value["delta"]),
                predicted_time=float(value["predicted_time"]),
                algorithm=algorithm,
            ),
            True,
        )
    best: tuple[float, int, float] | None = None
    for p in candidate_ranks(n, p_max):
        try:
            delta, time = cached_best_delta(cache, n, p, params, algorithm)
        except ValueError:
            continue  # does not fit this machine's memory at any δ
        if best is None or (time, p) < (best[0], best[1]):
            best = (time, p, delta)
    if best is None:
        raise ValueError(
            f"no candidate rank count fits n={n} on p_max={p_max} "
            f"(memory_words={params.memory_words:.3g})"
        )
    time, p, delta = best
    plan = Plan(n=n, p=p, delta=delta, predicted_time=time, algorithm=algorithm)
    cache.put(key, {"p": p, "delta": delta, "predicted_time": time})
    return plan, False
