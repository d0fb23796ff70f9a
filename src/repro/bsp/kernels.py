"""Local (single-rank) compute kernels with F and Q accounting.

These wrap the sequential numerics so that every local operation a virtual
rank performs charges:

* flops per the standard dense linear-algebra counts, and
* vertical traffic per Lemma III.1 (matmul: ``Q = O(mn + mk + nk)``) and
  Lemma III.4 (QR: ``Q = O(mn)``) — the paper drops the ``mnk/√H`` term by
  assuming ``ν ≤ γ·√H``, and so do we.

Operands may carry cache *keys*; a keyed operand that is already resident in
the rank's cache (e.g. the replicated ``A`` blocks of Algorithm III.1 /
Lemma III.3) charges no read traffic.  Unkeyed operands are streamed.
"""

from __future__ import annotations

import numpy as np

from repro.bsp.group import RankGroup
from repro.bsp.machine import BSPMachine


def _span_group(ranks) -> RankGroup | None:
    """Rank spec as a RankGroup for span labelling, when it is one."""
    return ranks if isinstance(ranks, RankGroup) else None


def _read(machine: BSPMachine, rank: int, array: np.ndarray, key: object | None) -> None:
    words = float(array.size)
    if key is None:
        machine.mem_stream(rank, words)
    else:
        machine.mem_read(rank, key, words)


def _write(machine: BSPMachine, rank: int, array: np.ndarray, key: object | None) -> None:
    words = float(array.size)
    if key is None:
        machine.mem_stream(rank, words)
    else:
        machine.mem_write(rank, key, words)


def matmul_flops(m: int, n: int, k: int) -> float:
    """Flop count of an m×n by n×k product (multiply + add)."""
    return 2.0 * m * n * k


def qr_flops(m: int, n: int) -> float:
    """Flop count of Householder QR of an m×n matrix (m >= n)."""
    return 2.0 * m * n * n - (2.0 / 3.0) * n**3


def matmul_flops_arr(m: np.ndarray, n: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Element-wise :func:`matmul_flops` over float64 dimension arrays.

    Bit-equal to the scalar form: the products are exact integers in
    float64, so association order cannot change the result.
    """
    return 2.0 * m * n * k


def qr_flops_arr(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Element-wise :func:`qr_flops` over float64 dimension arrays.

    Bit-equal to the scalar form for the same reason as
    :func:`matmul_flops_arr` (both terms exact before the one subtraction).
    """
    return 2.0 * m * n * n - (2.0 / 3.0) * n**3


def local_matmul(
    machine: BSPMachine,
    rank: int,
    a: np.ndarray,
    b: np.ndarray,
    a_key: object | None = None,
    b_key: object | None = None,
    out_key: object | None = None,
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
        _write(machine, rank, accumulate, out_key)
        machine.charge_flops(rank, float(c.size))  # the additions
        return accumulate
    _write(machine, rank, c, out_key)
    return c


def local_qr(
    machine: BSPMachine,
    rank: int,
    a: np.ndarray,
    a_key: object | None = None,
    mode: str = "reduced",
) -> tuple[np.ndarray, np.ndarray]:
    """Householder QR of a local m×n matrix (m >= n) on ``rank``.

    Returns ``(Q, R)`` with Q of shape m×n and R upper-triangular n×n.
    The numerics use :func:`repro.linalg.qr.householder_qr`; cost is charged
    per Lemma III.4 (sequential CAQR attains Q = O(mn)).
    """
    from repro.linalg.qr import householder_qr  # late import: avoid cycle

    m, n = a.shape
    if m < n:
        raise ValueError(f"local_qr requires m >= n, got {a.shape}")
    q, r = householder_qr(a, mode=mode)
    machine.charge_flops(rank, qr_flops(m, n))
    _read(machine, rank, a, a_key)
    machine.mem_stream(rank, float(q.size + r.size))  # write Q and R
    return q, r


def local_qr_householder(
    machine: BSPMachine,
    rank: int,
    a: np.ndarray,
    a_key: object | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Householder-form QR on ``rank``: returns ``(U, T, R)``.

    ``Q = I − U T Uᵀ`` with U unit-lower-trapezoidal m×n and T upper-
    triangular n×n (compact WY form), the representation the eigensolvers
    aggregate (Section IV).
    """
    from repro.linalg.householder import compact_wy_qr  # late import

    m, n = a.shape
    if m < n:
        raise ValueError(f"local_qr_householder requires m >= n, got {a.shape}")
    u, t, r = compact_wy_qr(a)
    machine.charge_flops(rank, qr_flops(m, n) + 2.0 * m * n * n)  # QR + forming T
    _read(machine, rank, a, a_key)
    machine.mem_stream(rank, float(u.size + t.size + r.size))
    return u, t, r


# ---------------------------------------------------------------------- #
# group-sharded kernels
#
# The one-stage baselines (pdsytrd structure) split each trailing-matrix
# operation evenly over a rank group: every rank computes its 1/g share and
# the group reassembles via the collectives the caller charges.  These
# kernels perform the numerics once (orchestrated simulation) and charge
# each group member its share of flops and streaming traffic, so callers
# never touch raw numpy math.


def _group_size(ranks) -> int:
    size = getattr(ranks, "size", None)
    return int(size) if size is not None else len(tuple(ranks))


def sharded_matvec(
    machine: BSPMachine,
    ranks,
    a: np.ndarray,
    v: np.ndarray,
    scale: float = 1.0,
) -> np.ndarray:
    """``y = scale·(A @ v)`` with A's rows sharded over the group.

    Charges each rank 2mn/g flops and mn/g streamed words (A is read once,
    split by rows; v is lower-order).
    """
    m, n = a.shape
    g = _group_size(ranks)
    y = scale * (a @ v)
    with machine.span("sharded_matvec", group=_span_group(ranks)):
        machine.charge_flops(ranks, 2.0 * m * n / g)
        machine.mem_stream_group(ranks, m * n / g)
    if machine.faults.enabled:
        y = machine.faults.corrupt_output(y, "sharded_matvec")
    return y


def sharded_dot(machine: BSPMachine, ranks, x: np.ndarray, y: np.ndarray) -> float:
    """Inner product with the vectors sharded over the group.

    Each rank computes its 2n/g-flop partial; the caller charges the
    allreduce that combines the partials.
    """
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    g = _group_size(ranks)
    n = float(x.size)
    with machine.span("sharded_dot", group=_span_group(ranks)):
        machine.charge_flops(ranks, 2.0 * n / g)
        machine.mem_stream_group(ranks, 2.0 * n / g)
    return float(np.dot(x.ravel(), y.ravel()))


def sharded_axpy(machine: BSPMachine, ranks, alpha: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``y += alpha·x`` in place, sharded over the group (2n/g flops each)."""
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    g = _group_size(ranks)
    n = float(x.size)
    y += alpha * x
    with machine.span("sharded_axpy", group=_span_group(ranks)):
        machine.charge_flops(ranks, 2.0 * n / g)
        machine.mem_stream_group(ranks, 2.0 * n / g)
    if machine.faults.enabled:
        machine.faults.corrupt_output(y, "sharded_axpy")
    return y


def sharded_rank2_update(machine: BSPMachine, ranks, a: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Symmetric rank-2 update ``A -= v wᵀ + w vᵀ`` in place, sharded.

    4mn flops total (two multiplies + two adds per element), mn streamed
    words, both split over the group — the trailing update of one
    Householder column in the ScaLAPACK-like baseline.
    """
    m, n = a.shape
    if v.shape != (m,) or w.shape != (n,):
        raise ValueError(f"rank-2 update shape mismatch: A {a.shape}, v {v.shape}, w {w.shape}")
    g = _group_size(ranks)
    a -= np.outer(v, w) + np.outer(w, v)
    with machine.span("sharded_rank2_update", group=_span_group(ranks)):
        machine.charge_flops(ranks, 4.0 * m * n / g)
        machine.mem_stream_group(ranks, m * n / g)
    if machine.faults.enabled:
        machine.faults.corrupt_output(a, "sharded_rank2_update")
    return a
