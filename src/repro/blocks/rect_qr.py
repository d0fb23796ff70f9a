"""rect-QR (Algorithm III.2): QR of arbitrary rectangular matrices.

A binary reduction tree over row panels: ``r = min(p, ⌈m/2n⌉)`` concurrent
recursive factorizations on disjoint processor subsets, a recursive QR of
the stacked R factors on the whole group, then the concurrent products
``Q_i = W_i·Z_i`` (line 11).  Base cases (m ≤ 2n, or a single rank) use
:func:`~repro.blocks.square_qr.square_qr` on up to ``qmax`` ranks —
Theorem III.6 picks ``qmax = (p·n/m)·log(p)^{1/δ}`` to balance latency
against bandwidth.

The public entry point returns the aggregated Householder form ``(U, T, R)``
via reconstruction (Corollary III.7); the internal recursion passes explicit
thin Q factors (cheap at these panel sizes, and exactly what line 11
multiplies).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.bsp.group import RankGroup
from repro.bsp.machine import BSPMachine
from repro.bsp.pattern import uniform
from repro.blocks.matmul import carma_matmul, carma_schedule
from repro.blocks.square_qr import square_qr, square_qr_schedule
from repro.blocks.square_qr_25d import square_qr_25d
from repro.blocks.tsqr import reconstruct_householder, reconstruct_schedule
from repro.linalg.householder import expand_q


def default_qmax(p: int, m: int, n: int, delta: float = 0.5) -> int:
    """Theorem III.6's base-case rank cap: (p·n/m)·log₂(p)^{1/δ}."""
    if p <= 1:
        return 1
    lg = max(1.0, np.log2(p))
    return max(1, int(np.ceil(p * n / m * lg ** (1.0 / delta))))


def _rect_qr_thin(machine: BSPMachine, group: RankGroup, a: np.ndarray | None, shape: tuple[int, int],
                  qmax: int, delta: float, base25d: bool, tag: str) -> tuple[np.ndarray, np.ndarray] | None:
    """Lines 1–11 on an m×n panel: its thin Q and R — or, with ``a`` None,
    only the charges of ``shape``'s factorization (the walk a kernel tape
    records, :func:`rect_qr_schedule`)."""
    m, n = shape
    g = group.size

    # Base cases (lines 1–2).  The 2.5D base case is opt-in: its replicated
    # streaming term wins only for base cases far larger than the 2b×b
    # blocks the eigensolvers produce (see bench_ablation.py).
    if g == 1 or m <= 2 * n:
        sub = group.take(min(g, max(1, qmax)))
        if a is None:
            square_qr_schedule(machine, sub, m, n)
            return None
        if base25d and delta > 0.5 and sub.size >= 8:
            u, t, r = square_qr_25d(machine, sub, a, delta=delta, tag=f"{tag}:base25")
        else:
            u, t, r = square_qr(machine, sub, a)
        return expand_q(u, t), r

    # Line 3: r row panels on disjoint subsets.
    r_parts = min(g, max(2, -(-m // (2 * n))))
    subgroups = group.split(r_parts)
    sizes = [m // r_parts + (1 if i < m % r_parts else 0) for i in range(r_parts)]
    offs = np.concatenate(([0], np.cumsum(sizes)))

    # Lines 5–6: concurrent recursive QRs (disjoint groups — costs land on
    # their own ranks, so sequential execution models concurrency).
    leaves = [
        _rect_qr_thin(machine, sub, None if a is None else a[offs[i] : offs[i + 1], :],
                      (sizes[i], n), qmax, delta, base25d, tag=f"{tag}:leaf{i}")
        for i, sub in enumerate(subgroups)
    ]

    # Line 7: recursive QR of the stacked R factors (n×n each) on the whole group.
    stacked = None if a is None else np.vstack([leaf[1] for leaf in leaves])  # type: ignore[index]
    top = _rect_qr_thin(machine, group, stacked, (r_parts * n, n), qmax, delta, base25d,
                        tag=f"{tag}:stack")

    # Lines 9–11: Q_i = W_i · Z_i, concurrent per subset.
    q_blocks: list[np.ndarray] = []
    for i, (sub, leaf) in enumerate(zip(subgroups, leaves)):
        if top is None:
            carma_schedule(machine, sub, (sizes[i], n), (n, n), charge_redistribution=False)
        else:
            zi = top[0][i * n : (i + 1) * n, :]
            q_blocks.append(carma_matmul(machine, sub, leaf[0], zi, charge_redistribution=False))  # type: ignore[index]
    machine.superstep(group, 1)
    return None if top is None else (np.vstack(q_blocks), top[1])


def _rect_qr(machine: BSPMachine, group: RankGroup, a: np.ndarray | None, shape: tuple[int, int],
             qmax: int | None = None, delta: float = 0.5, base25d: bool = False,
             charge_redistribution: bool = True, tag: str = "rect_qr") -> Any:
    """:func:`rect_qr` on ``a``, or with ``a`` None its charges alone."""
    m, n = shape
    if m < n:
        raise ValueError(f"rect_qr requires m >= n, got {shape}")
    machine.check_group(group)
    if qmax is None:
        qmax = default_qmax(group.size, m, n, delta)
    with machine.span("rect_qr", group=group):
        if charge_redistribution and group.size > 1:
            per_rank = m * n / group.size
            machine.charge_comm_batch(group, per_rank, per_rank, pattern=uniform(group.size))
            machine.superstep(group, 1)
        thin = _rect_qr_thin(machine, group, a, shape, qmax, delta, base25d, tag)
        if thin is None:
            return reconstruct_schedule(machine, group, m, n)
        return reconstruct_householder(machine, group, *thin)


def rect_qr(
    machine: BSPMachine,
    group: RankGroup,
    a: np.ndarray,
    qmax: int | None = None,
    delta: float = 0.5,
    base25d: bool = False,
    charge_redistribution: bool = True,
    tag: str = "rect_qr",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """QR of an m×n matrix (m ≥ n) on ``group``, in Householder form.

    Returns ``(U, T, R)`` with ``A = (I − U T Uᵀ)E·R``; measured costs
    follow Theorem III.6:  F = O(mn²/p), W = O(m^δ n^{2−δ}/p^δ + mn/p),
    S = O((np/m)^δ log² p).
    """
    a = np.asarray(a, dtype=np.float64)
    return _rect_qr(machine, group, a, a.shape, qmax, delta, base25d, charge_redistribution, tag)


def rect_qr_schedule(machine: BSPMachine, group: RankGroup, shape: tuple[int, int], qmax: int | None = None,
                     delta: float = 0.5, charge_redistribution: bool = True) -> None:
    """The charges of :func:`rect_qr` (with the 2-D base case) on an m×n
    matrix, from its shape alone."""
    _rect_qr(machine, group, None, shape, qmax, delta, False, charge_redistribution)
