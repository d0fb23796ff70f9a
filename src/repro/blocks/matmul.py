"""CARMA: communication-optimal recursive rectangular matrix multiplication.

Lemma III.2 (after Demmel, Eliahu, Fox, Kamil, Lipshitz, Schwartz,
Spillinger, IPDPS'13): for any load-balanced starting layout, an m×n by n×k
product on p processors costs

    W = O((mn + nk + mk)/p + v^{1/3} (mnk/p)^{2/3}),   S = O(v log p),

using M = O((mn+nk+mk)/p + (mnk/(vp))^{2/3}) memory, where v ≥ 1 trades
memory for communication (v = 1 with unconstrained memory).

The implementation walks the recursion on operand shapes — split the
largest of (m, n, k) in half, halving the processor group (a *BFS* step) —
and charges each rank the operand-doubling or partial-sum traffic of that
split and, at the leaves, its local product; the product itself is one
``a @ b``.  When a
per-rank memory budget is given and a BFS step would exceed it, a *DFS* step
executes both halves on the whole group sequentially (extra passes → the
``v^{1/3}`` communication inflation and ``v log p`` supersteps).
"""

from __future__ import annotations

import math

import numpy as np

from repro.bsp.group import RankGroup
from repro.bsp.kernels import matmul_flops
from repro.bsp.machine import BSPMachine
from repro.bsp.pattern import Pattern, halves, uniform


def _charge_split(machine: BSPMachine, group: RankGroup, words_per_rank: float,
                  pattern: Pattern) -> None:
    """Charge an operand re-spreading step: each rank sends and receives
    ``words_per_rank`` words over ``pattern``, one superstep."""
    machine.charge_comm_batch(group, words_per_rank, words_per_rank, pattern=pattern)
    machine.superstep(group, 1)


def _rec(machine: BSPMachine, group: RankGroup, m: int, n: int, k: int, memory_words: float) -> None:
    """Charge the recursion for an m×n by n×k product on ``group``."""
    g = group.size
    if g == 1:
        rank = group[0]
        machine.note_memory(rank, float(m * n + n * k + m * k))
        # the local product: its flops, both operands read, the output written
        machine.charge_flops(rank, matmul_flops(m, n, k))
        machine.mem_stream(rank, float(m * n))
        machine.mem_stream(rank, float(n * k))
        machine.mem_stream(rank, float(m * k))
        return

    # Per-rank footprint after a BFS split ~ doubles the non-split operands.
    footprint = (m * n + n * k + m * k) / g
    inner = False
    if m >= n and m >= k:
        # Split m: B becomes twice as dense per rank.
        parts = ((m // 2, n, k), (m - m // 2, n, k))
        extra, restream = n * k / g, (m * n / 2 + n * k) / g
    elif k >= n:
        # Split k: A becomes twice as dense per rank.
        parts = ((m, n, k // 2), (m, n, k - k // 2))
        extra, restream = m * n / g, (m * n + n * k / 2) / g
    else:
        # Split n (inner): partial C's must be summed across the halves.
        parts = ((m, n // 2, k), (m, n - n // 2, k))
        extra, restream, inner = m * k / g, (m * n + n * k) / (2 * g), True
    if footprint + extra <= memory_words:
        # BFS: the halves run concurrently on the two half-groups.
        if not inner:
            _charge_split(machine, group, extra, halves(g))
        for sub, shape in zip(group.split(2), parts):
            _rec(machine, sub, *shape, memory_words)
        if inner:
            machine.charge_comm_batch(group, extra, extra, pattern=halves(g))
            machine.charge_flops(group, extra)
            machine.superstep(group, 1)
        return
    # DFS: both halves on the whole group, operands restreamed each pass.
    for shape in parts:
        _charge_split(machine, group, restream, uniform(g))
        _rec(machine, group, *shape, memory_words)
    if inner:
        machine.charge_flops(group, m * k / g)


def _charge(machine: BSPMachine, group: RankGroup, m: int, n: int, k: int,
            memory_words: float, charge_redistribution: bool) -> None:
    if charge_redistribution and group.size > 1:
        per_rank = (m * n + n * k) / group.size
        machine.charge_comm_batch(group, per_rank, per_rank, pattern=uniform(group.size))
        machine.superstep(group, 1)
    _rec(machine, group, m, n, k, memory_words)


def carma_schedule(machine: BSPMachine, group: RankGroup, a_shape: tuple[int, int], b_shape: tuple[int, int],
                   memory_words: float = math.inf, charge_redistribution: bool = True) -> None:
    """The charges of :func:`carma_matmul` for an ``a_shape`` by
    ``b_shape`` product, from the shapes alone."""
    with machine.span("carma", group=group):
        _charge(machine, group, *a_shape, b_shape[1], memory_words, charge_redistribution)


def carma_matmul(
    machine: BSPMachine,
    group: RankGroup,
    a: np.ndarray,
    b: np.ndarray,
    memory_words: float = math.inf,
    charge_redistribution: bool = True,
) -> np.ndarray:
    """Multiply A (m×n) by B (n×k) on ``group`` with CARMA's cost profile.

    ``memory_words`` is the per-rank budget M; a finite budget triggers DFS
    steps (higher W and S, lower M), realizing the ``v`` trade-off of
    Lemma III.2.  ``charge_redistribution`` accounts the move from an
    arbitrary load-balanced input layout to the recursion's layout.  The
    charges walk the recursion on shapes alone; the product is one ``@``.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} @ {b.shape}")
    machine.check_group(group)
    if memory_words <= 0:
        raise ValueError("memory_words must be positive")
    with machine.span("carma", group=group):
        _charge(machine, group, *a.shape, b.shape[1], memory_words, charge_redistribution)
        c = a @ b  # cost: free(charged by the recursion walk on the line above)
        if machine.faults.enabled:
            from repro.faults.abft import abft_check  # late import: faults wraps bsp

            c = machine.faults.corrupt_output(c, "carma")
            abft_check(machine, group, a, b, c, site="carma")
        return c
