"""Shared assertion helpers for the test suite."""

from __future__ import annotations

import numpy as np


def eig_err(a: np.ndarray, b_or_evals: np.ndarray) -> float:
    """Max relative |λ_i(A) − λ_i(B)| (B a matrix or a sorted eigenvalue
    vector), scaled by the spectral magnitude."""
    ref = np.linalg.eigvalsh(a)
    if b_or_evals.ndim == 2:
        other = np.linalg.eigvalsh(b_or_evals)
    else:
        other = np.sort(np.asarray(b_or_evals))
    scale = max(1.0, np.abs(ref).max())
    return float(np.abs(ref - other).max() / scale)


def happy_path_schedule(requests, pool):
    """Place ``(job_id, arrival, p, service_time)`` requests with the
    resilient event loop on its happy path — every attempt succeeds, no
    hedging — and return the :class:`~repro.serve.scheduler.Schedule`."""
    from repro.serve.resilience import (
        AttemptOutcome,
        HedgePolicy,
        ResiliencePolicy,
        Rung,
        SimJob,
        run_resilient,
    )

    plan = {job_id: (p, service) for job_id, _, p, service in requests}
    return run_resilient(
        [SimJob(job_id, arrival) for job_id, arrival, _, _ in requests],
        pool,
        lambda job_id, failures: Rung(plan[job_id][0], 0.5, "primary"),
        lambda job_id, rung, attempt, machine_id: AttemptOutcome(
            ok=True, service_time=plan[job_id][1]
        ),
        ResiliencePolicy(hedge=HedgePolicy(enabled=False)),
    ).schedule
