"""Shared assertion helpers for the test suite."""

from __future__ import annotations

import numpy as np

from repro.bench import COST_FIELDS
from repro.util.validation import check_positive_int

#: counter fields :func:`report_mismatches` compares rank by rank
_PER_RANK_FIELDS = (
    "flops",
    "words_sent",
    "words_recv",
    "mem_traffic",
    "supersteps",
    "peak_memory_words",
)


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


def wilkinson(n: int) -> np.ndarray:
    """The Wilkinson W_n tridiagonal matrix (clustered eigenvalues).

    A classic stress test for symmetric eigensolvers: pairs of eigenvalues
    agree to many digits.
    """
    n = check_positive_int(n, "n")
    m = (n - 1) / 2.0
    diag = np.abs(np.arange(n) - m)
    a = np.diag(diag)
    off = np.ones(n - 1)
    a += np.diag(off, 1) + np.diag(off, -1)
    return a


def per_rank_arrays(report) -> dict[str, np.ndarray]:
    """Per-rank counter arrays of a cost report."""
    return {name: report.per_rank.field_array(name) for name in _PER_RANK_FIELDS}


def report_mismatches(a, b) -> list[str]:
    """Ways two cost reports differ, bit-for-bit ([] means identical)."""
    issues: list[str] = []
    if a.p != b.p:
        return [f"p differs: {a.p} != {b.p}"]
    for name in COST_FIELDS:
        va, vb = getattr(a, name), getattr(b, name)
        if va != vb:
            issues.append(f"{name} differs: {va!r} != {vb!r}")
    pa, pb = per_rank_arrays(a), per_rank_arrays(b)
    for name in _PER_RANK_FIELDS:
        if not np.array_equal(pa[name], pb[name]):
            bad = int(np.argmax(pa[name] != pb[name]))
            issues.append(
                f"per-rank {name} differs first at rank {bad}: "
                f"{pa[name][bad]!r} != {pb[name][bad]!r}"
            )
    return issues


def span_rows(breakdown) -> dict:
    """``path -> SpanCost`` of a span breakdown, in row order."""
    return {row.path: row for row in breakdown.rows}


def happy_path_schedule(requests, pool):
    """Place ``(job_id, arrival, p, service_time)`` requests with the
    resilient event loop on its happy path — every attempt succeeds — and
    return the :class:`~repro.serve.scheduler.Schedule`."""
    from repro.serve.resilience import AttemptOutcome, Rung, SimJob, run_resilient

    plan = {job_id: (p, service) for job_id, _, p, service in requests}
    return run_resilient(
        [SimJob(job_id, arrival) for job_id, arrival, _, _ in requests],
        pool,
        lambda job_id, failures: Rung(plan[job_id][0], 0.5, "primary"),
        lambda job_id, rung, attempt, machine_id: AttemptOutcome(
            ok=True, service_time=plan[job_id][1]
        ),
    ).schedule
