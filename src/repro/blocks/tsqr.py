"""TSQR: tall-skinny QR on a binary reduction tree, with Householder
reconstruction.

The classic communication-avoiding QR for m×n with m ≫ n (Demmel, Grigori,
Hoemmen, Langou): each rank QR-factors its row block, then pairs of R
factors are stacked and re-factored up a binary tree (log p supersteps, each
moving one n×n triangle).  The thin Q is recovered down the tree, and
Householder reconstruction (Corollary III.7) converts it to one compact-WY
pair ``(U, T)`` — the representation the eigensolvers aggregate.

All tree nodes perform *real* factorizations of the actual data, so the
returned factors are bit-for-bit those of the distributed algorithm.  The
charges depend on the shape and the group size alone: each kernel charges
them from its shape (:func:`tsqr_schedule`) and then runs the numerics
uncharged.  The eigensolver stages use the kernel (inside ``rect_qr``) for
its charges: its schedule is recorded once per shape and group size onto a
kernel tape (:mod:`repro.bsp.batch`) and, under fault injection, the kernel
runs live on the real panel.  Their panels' factors come from one
sequential compact-WY QR.
"""

from __future__ import annotations

import numpy as np

from repro.bsp.group import RankGroup
from repro.bsp.kernels import matmul_flops, qr_flops
from repro.bsp.machine import BSPMachine
from repro.bsp.pattern import pairs, tree_level, uniform
from repro.linalg.householder import compact_wy_qr, expand_q
from repro.linalg.reconstruct import householder_reconstruct
from repro.util.intlog import chunk_offsets, split_evenly


def reconstruct_schedule(machine: BSPMachine, group: RankGroup, m: int, n: int) -> None:
    """The charges of :func:`reconstruct_householder` on an m×n thin Q,
    from its shape alone."""
    g = group.size
    with machine.span("reconstruct", group=group):
        machine.charge_flops(group, 4.0 * m * n * n / g + (2.0 / 3.0) * n**3 / g)
        if g > 1:
            # Q's rows never move: the LU runs on the n×n top block and each
            # rank forms its rows of U = Y·W₁⁻¹ locally after a W₁ broadcast.
            per_rank = n * n / np.sqrt(g)
            machine.charge_comm_batch(group, per_rank, per_rank, pattern=uniform(g))
            machine.superstep(group, max(1, int(np.ceil(np.log2(g)))))
        machine.mem_stream(group[0], float(m * n + n * n))  # U and T written


def reconstruct_householder(
    machine: BSPMachine,
    group: RankGroup,
    q_thin: np.ndarray,
    r: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Householder reconstruction with Corollary III.7 cost charges.

    Returns ``(U, T, R')`` where ``Q_thin = (I − U T Uᵀ)E · diag(s)`` and
    ``R' = diag(s)·R`` so that ``A = (I − U T Uᵀ)E · R'`` exactly.

    Charged per the corollary's proof: a parallel non-pivoted LU of the n×n
    top block plus triangular-solve matmuls over the group — flops
    O(mn²/g), horizontal words O(mn/g + n²/√g), O(log g) supersteps.
    """
    u, t, s = householder_reconstruct(q_thin)
    reconstruct_schedule(machine, group, *q_thin.shape)
    return u, t, s[:, None] * r


def _charge_tsqr(machine: BSPMachine, grp: RankGroup, m: int, n: int) -> None:
    """Charge TSQR of an m×n matrix with one row block per rank of ``grp``:
    the leaf QRs, the reduction tree, the downward pass and the leaf
    products ``Q_leaf·Z``."""
    p_eff = grp.size
    if p_eff == 1:
        machine.charge_flops(grp[0], qr_flops(m, n))
        machine.mem_stream(grp[0], float(2 * m * n + n * n))  # A read; U and R written
        return
    sizes = split_evenly(m, p_eff)
    # Leaf QRs (concurrent; each rank factors its block).
    for idx, sz in enumerate(sizes):
        machine.charge_flops(grp[idx], qr_flops(sz, n))
        machine.mem_stream(grp[idx], float(sz * n + n * n))
    machine.superstep(grp, 1)
    # Reduction tree: node owners are the even-index ranks of each level.
    tri_words = float(n * (n + 1) // 2)
    owners = list(range(p_eff))
    while len(owners) > 1:
        for ia, ib in zip(owners[::2], owners[1::2]):
            machine.charge_comm(grp[ib], tri_words, grp[ia], tri_words, pattern=pairs(1))
            machine.charge_flops(grp[ia], qr_flops(2 * n, n))
            machine.mem_stream(grp[ia], float(3 * n * n))
        owners = owners[::2]
        machine.superstep(grp, 1)
    # Downward pass: one n×n block per tree edge, charged uniformly (each
    # rank touches O(1) edges per level), on the leaf-level edges, where
    # every rank has one.
    per_rank = float(n * n)
    machine.charge_comm_batch(grp, per_rank, per_rank, pattern=tree_level(p_eff, 0))
    machine.superstep(grp, max(1, int(np.ceil(np.log2(p_eff)))))
    # Leaf products Q_leaf·Z: both operands read, the output written.
    for idx, sz in enumerate(sizes):
        machine.charge_flops(grp[idx], matmul_flops(sz, n, n))
        machine.mem_stream(grp[idx], float(sz * n))
        machine.mem_stream(grp[idx], float(n * n))
        machine.mem_stream(grp[idx], float(sz * n))
    machine.superstep(grp, 1)


def _tsqr_factors(a: np.ndarray, p_eff: int) -> tuple[np.ndarray, np.ndarray]:
    """The thin Q and R of ``a`` by TSQR over ``p_eff`` row blocks (the
    numerics :func:`_charge_tsqr` charges)."""
    m, n = a.shape
    if p_eff == 1:
        u, t, r = compact_wy_qr(a)
        return expand_q(u, t), r
    sizes = split_evenly(m, p_eff)
    leaf_q: list[np.ndarray] = []
    nodes: list[np.ndarray] = []
    for o, sz in zip(chunk_offsets(sizes), sizes):
        u, t, r = compact_wy_qr(a[o : o + sz, :])
        leaf_q.append(expand_q(u, t))
        nodes.append(r)
    # Reduction tree: pairs of R factors are stacked and re-factored.
    tree_qs: list[list[np.ndarray | None]] = []
    while len(nodes) > 1:
        level_qs: list[np.ndarray | None] = []
        nxt: list[np.ndarray] = []
        for ra, rb in zip(nodes[::2], nodes[1::2]):
            u, t, r = compact_wy_qr(np.vstack([ra, rb]))
            level_qs.append(expand_q(u, t))
            nxt.append(r)
        if len(nodes) % 2:
            nxt.append(nodes[-1])
            level_qs.append(None)
        tree_qs.append(level_qs)
        nodes = nxt
    # Downward pass: expand the implicit Q; leaves then form Q_leaf · Z.
    zs: list[np.ndarray] = [np.eye(n)]
    for level_qs in reversed(tree_qs):
        new_zs: list[np.ndarray] = []
        for qnode, z in zip(level_qs, zs):
            if qnode is None:
                new_zs.append(z)
            else:
                prod = qnode @ z  # cost: free(explicit-Q expansion is simulation-only; Lemma III.4 charges the implicit tree QR)
                new_zs.append(prod[:n, :])
                new_zs.append(prod[n:, :])
        zs = new_zs
    q_blocks = [qleaf @ z for qleaf, z in zip(leaf_q, zs)]  # cost: free(charged by _charge_tsqr)
    return np.vstack(q_blocks), nodes[0]


def _leaves(group_size: int, m: int, n: int) -> int:
    """How many ranks TSQR of an m×n matrix uses: at most ``m // n``, so
    every leaf block is at least as tall as it is wide."""
    return max(1, min(group_size, m // n))


def tsqr_thin(
    machine: BSPMachine,
    group: RankGroup,
    a: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """TSQR returning the explicit thin Q and R (no reconstruction).

    The number of ranks actually used is capped at ``m // n`` so every leaf
    block is at least as tall as it is wide.
    """
    a = np.asarray(a, dtype=np.float64)
    m, n = a.shape
    if m < n:
        raise ValueError(f"tsqr requires m >= n, got {a.shape}")
    machine.check_group(group)
    grp = group.take(_leaves(group.size, m, n))
    with machine.span("tsqr", group=grp):
        _charge_tsqr(machine, grp, m, n)
        return _tsqr_factors(a, grp.size)


def tsqr(
    machine: BSPMachine,
    group: RankGroup,
    a: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """TSQR in Householder form: returns ``(U, T, R)``.

    ``A = (I − U T Uᵀ)E · R`` with U unit-lower-trapezoidal m×n, T n×n upper
    triangular.  This is TSQR + Householder reconstruction, the combination
    every QR call site in Section IV relies on.
    """
    q_thin, r = tsqr_thin(machine, group, a)
    return reconstruct_householder(machine, group.take(_leaves(group.size, *a.shape)), q_thin, r)


def tsqr_schedule(machine: BSPMachine, group: RankGroup, m: int, n: int) -> None:
    """The charges of :func:`tsqr` on an m×n matrix, from its shape alone."""
    grp = group.take(_leaves(group.size, m, n))
    with machine.span("tsqr", group=grp):
        _charge_tsqr(machine, grp, m, n)
    reconstruct_schedule(machine, grp, m, n)


def tsqr_factors(a: np.ndarray, group_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(U, T, R)`` :func:`tsqr` returns on a ``group_size``-rank
    group, uncharged (the numerics :func:`tsqr_schedule` charges)."""
    q_thin, r = _tsqr_factors(a, _leaves(group_size, *a.shape))
    u, t, s = householder_reconstruct(q_thin)
    return u, t, s[:, None] * r
