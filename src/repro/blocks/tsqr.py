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
eigensolver stages use the kernel (inside ``rect_qr``) for its charges:
recorded once per shape onto a kernel tape (:mod:`repro.bsp.batch`) and,
under fault injection, run live on the real panel.  Their panels' factors
come from one sequential compact-WY QR.
"""

from __future__ import annotations

import numpy as np

from repro.bsp.group import RankGroup
from repro.bsp.kernels import local_matmul, qr_flops
from repro.bsp.machine import BSPMachine
from repro.bsp.pattern import pairs, tree_level, uniform
from repro.linalg.householder import compact_wy_qr, expand_q
from repro.linalg.reconstruct import householder_reconstruct
from repro.util.intlog import chunk_offsets, split_evenly


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
    m, n = q_thin.shape
    u, t, s = householder_reconstruct(q_thin)
    r_signed = s[:, None] * r
    g = group.size
    with machine.span("reconstruct", group=group):
        machine.charge_flops(group, 4.0 * m * n * n / g + (2.0 / 3.0) * n**3 / g)
        if g > 1:
            # Q's rows never move: the LU runs on the n×n top block and each
            # rank forms its rows of U = Y·W₁⁻¹ locally after a W₁ broadcast.
            per_rank = n * n / np.sqrt(g)
            machine.charge_comm_batch(group, per_rank, per_rank, pattern=uniform(g))
            machine.superstep(group, max(1, int(np.ceil(np.log2(g)))))
        machine.mem_stream(group[0], float(u.size + t.size))
    return u, t, r_signed


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
    p_eff = max(1, min(group.size, m // n))
    grp = group.take(p_eff)

    with machine.span("tsqr", group=grp):
        if p_eff == 1:
            rank = grp[0]
            u, t, r = compact_wy_qr(a)
            machine.charge_flops(rank, qr_flops(m, n))
            machine.mem_stream(rank, float(a.size + u.size + r.size))
            return expand_q(u, t), r

        sizes = split_evenly(m, p_eff)
        offs = chunk_offsets(sizes)
        # Leaf QRs (concurrent; each rank factors its block).
        leaf_q: list[np.ndarray] = []
        rs: list[np.ndarray] = []
        for idx, (o, sz) in enumerate(zip(offs, sizes)):
            rank = grp[idx]
            u, t, r = compact_wy_qr(a[o : o + sz, :])
            machine.charge_flops(rank, qr_flops(sz, n))
            machine.mem_stream(rank, float(sz * n + n * n))
            leaf_q.append(expand_q(u, t))
            rs.append(r)
        machine.superstep(grp, 1)

        # Reduction tree: node owners are the even-index ranks of each level.
        tri_words = float(n * (n + 1) // 2)
        nodes: list[tuple[np.ndarray, int]] = [(r, i) for i, r in enumerate(rs)]  # (R, owner idx)
        tree_qs: list[list[np.ndarray | None]] = []
        while len(nodes) > 1:
            nxt: list[tuple[np.ndarray, int]] = []
            level_qs: list[np.ndarray | None] = []
            for k in range(0, len(nodes) - 1, 2):
                (ra, ia), (rb, ib) = nodes[k], nodes[k + 1]
                machine.charge_comm(grp[ib], tri_words, grp[ia], tri_words, pattern=pairs(1))
                stacked = np.vstack([ra, rb])
                u, t, r = compact_wy_qr(stacked)
                machine.charge_flops(grp[ia], qr_flops(2 * n, n))
                machine.mem_stream(grp[ia], float(3 * n * n))
                level_qs.append(expand_q(u, t))
                nxt.append((r, ia))
            if len(nodes) % 2:
                nxt.append(nodes[-1])
                level_qs.append(None)
            machine.superstep(grp, 1)
            tree_qs.append(level_qs)
            nodes = nxt

        r_final = nodes[0][0]

        # Downward pass: expand the implicit Q.  Each edge sends one n×n block
        # back to the child owner; leaves then form Q_leaf · Z locally.
        zs: list[np.ndarray] = [np.eye(n)]
        for level_qs in reversed(tree_qs):
            new_zs: list[np.ndarray] = []
            zi = 0
            for qnode in level_qs:
                if qnode is None:
                    new_zs.append(zs[zi])
                else:
                    z = zs[zi]
                    prod = qnode @ z  # cost: free(explicit-Q expansion is simulation-only; Lemma III.4 charges the implicit tree QR)
                    new_zs.append(prod[:n, :])
                    new_zs.append(prod[n:, :])
                zi += 1
            zs = new_zs
        # Communication of the downward pass: one n×n block per tree edge,
        # charged uniformly (each rank touches O(1) edges per level), on the
        # leaf-level edges, where every rank has one.
        if p_eff > 1:
            per_rank = float(n * n)
            machine.charge_comm_batch(grp, per_rank, per_rank, pattern=tree_level(p_eff, 0))
            machine.superstep(grp, max(1, int(np.ceil(np.log2(p_eff)))))

        q_blocks = []
        for idx, (qleaf, z) in enumerate(zip(leaf_q, zs)):
            rank = grp[idx]
            q_blocks.append(local_matmul(machine, rank, qleaf, z))
        machine.superstep(grp, 1)
        q_thin = np.vstack(q_blocks)
    return q_thin, r_final


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
    p_eff = max(1, min(group.size, a.shape[0] // a.shape[1]))
    return reconstruct_householder(machine, group.take(p_eff), q_thin, r)
