"""CARMA as it ran before its charges became a walk on shapes: the real
recursion on array slices, each leaf a charged local product.

:func:`repro.blocks.matmul.carma_matmul` charges the recursion from the
operand shapes alone and forms the product with one ``@``;
``tests/test_carma.py`` pins its per-rank counters, spans and metrics byte
for byte to this live recursion.  :func:`local_matmul` is the charged local
product its leaves run (and ``tests/test_kernels.py`` tests).
"""

from __future__ import annotations

import math

import numpy as np

from repro.bsp.group import RankGroup
from repro.bsp.kernels import matmul_flops
from repro.bsp.machine import BSPMachine
from repro.bsp.pattern import Pattern, halves, uniform


def _read(machine: BSPMachine, rank: int, array: np.ndarray, key: object | None) -> None:
    words = float(array.size)
    if key is None:
        machine.mem_stream(rank, words)
    else:
        machine.mem_read(rank, key, words)


def local_matmul(
    machine: BSPMachine,
    rank: int,
    a: np.ndarray,
    b: np.ndarray,
    a_key: object | None = None,
    b_key: object | None = None,
    accumulate: np.ndarray | None = None,
    transpose_a: bool = False,
    transpose_b: bool = False,
) -> np.ndarray:
    """Multiply two local matrices on ``rank``; returns the product.

    ``accumulate`` adds the product into an existing array (charged as a
    read-modify-write of the output).
    """
    am = a.T if transpose_a else a
    bm = b.T if transpose_b else b
    m, n = am.shape
    n2, k = bm.shape
    if n != n2:
        raise ValueError(f"inner dimensions mismatch: {am.shape} @ {bm.shape}")
    c = am @ bm
    machine.charge_flops(rank, matmul_flops(m, n, k))
    _read(machine, rank, a, a_key)
    _read(machine, rank, b, b_key)
    if accumulate is not None:
        accumulate += c
        machine.mem_stream(rank, float(c.size))  # read old output
        machine.mem_stream(rank, float(accumulate.size))  # write the output
        machine.charge_flops(rank, float(c.size))  # the additions
        return accumulate
    machine.mem_stream(rank, float(c.size))  # write the output
    return c


def _charge_split(machine: BSPMachine, group: RankGroup, words_per_rank: float,
                  pattern: Pattern) -> None:
    """Charge an operand re-spreading step: each rank sends and receives
    ``words_per_rank`` words over ``pattern``, one superstep."""
    machine.charge_comm_batch(group, words_per_rank, words_per_rank, pattern=pattern)
    machine.superstep(group, 1)


def _rec(
    machine: BSPMachine,
    a: np.ndarray,
    b: np.ndarray,
    group: RankGroup,
    memory_words: float,
) -> np.ndarray:
    m, n = a.shape
    k = b.shape[1]
    g = group.size
    if g == 1:
        rank = group[0]
        machine.note_memory(rank, float(m * n + n * k + m * k))
        return local_matmul(machine, rank, a, b)

    # Per-rank footprint after a BFS split ~ doubles the non-split operands.
    footprint = (m * n + n * k + m * k) / g

    def bfs_ok(extra: float) -> bool:
        return footprint + extra <= memory_words

    if m >= n and m >= k:
        # Split m: B becomes twice as dense per rank.
        extra = n * k / g
        if bfs_ok(extra) or g == 1:
            _charge_split(machine, group, extra, halves(g))
            g1, g2 = group.split(2)
            c1 = _rec(machine, a[: m // 2], b, g1, memory_words)
            c2 = _rec(machine, a[m // 2 :], b, g2, memory_words)
            return np.vstack([c1, c2])
        # DFS: both halves on the full group, operands restreamed each pass.
        _charge_split(machine, group, (m * n / 2 + n * k) / g, uniform(g))
        c1 = _rec(machine, a[: m // 2], b, group, memory_words)
        _charge_split(machine, group, (m * n / 2 + n * k) / g, uniform(g))
        c2 = _rec(machine, a[m // 2 :], b, group, memory_words)
        return np.vstack([c1, c2])
    if k >= n:
        # Split k: A becomes twice as dense per rank.
        extra = m * n / g
        if bfs_ok(extra):
            _charge_split(machine, group, extra, halves(g))
            g1, g2 = group.split(2)
            c1 = _rec(machine, a, b[:, : k // 2], g1, memory_words)
            c2 = _rec(machine, a, b[:, k // 2 :], g2, memory_words)
            return np.hstack([c1, c2])
        _charge_split(machine, group, (m * n + n * k / 2) / g, uniform(g))
        c1 = _rec(machine, a, b[:, : k // 2], group, memory_words)
        _charge_split(machine, group, (m * n + n * k / 2) / g, uniform(g))
        c2 = _rec(machine, a, b[:, k // 2 :], group, memory_words)
        return np.hstack([c1, c2])
    # Split n (inner): partial C's must be summed across the halves.
    extra = m * k / g
    if bfs_ok(extra):
        g1, g2 = group.split(2)
        c1 = _rec(machine, a[:, : n // 2], b[: n // 2], g1, memory_words)
        c2 = _rec(machine, a[:, n // 2 :], b[n // 2 :], g2, memory_words)
        per_rank = m * k / g
        machine.charge_comm_batch(group, per_rank, per_rank, pattern=halves(g))
        machine.charge_flops(group, per_rank)
        machine.superstep(group, 1)
        return c1 + c2
    # DFS over n: sequential partial sums on the whole group.
    _charge_split(machine, group, (m * n + n * k) / (2 * g), uniform(g))
    c1 = _rec(machine, a[:, : n // 2], b[: n // 2], group, memory_words)
    _charge_split(machine, group, (m * n + n * k) / (2 * g), uniform(g))
    c2 = _rec(machine, a[:, n // 2 :], b[n // 2 :], group, memory_words)
    machine.charge_flops(group, m * k / g)
    return c1 + c2


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
    arbitrary load-balanced input layout to the recursion's layout.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} @ {b.shape}")
    machine.check_group(group)
    if memory_words <= 0:
        raise ValueError("memory_words must be positive")
    m, n = a.shape
    k = b.shape[1]
    with machine.span("carma", group=group):
        if charge_redistribution and group.size > 1:
            per_rank = (m * n + n * k) / group.size
            machine.charge_comm_batch(group, per_rank, per_rank, pattern=uniform(group.size))
            machine.superstep(group, 1)
        return _rec(machine, a, b, group, memory_words)
