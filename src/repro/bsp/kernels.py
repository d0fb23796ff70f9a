"""Local (single-rank) compute kernels with F and Q accounting.

These wrap the sequential numerics so that every local operation a virtual
rank performs charges:

* flops per the standard dense linear-algebra counts, and
* vertical traffic per Lemma III.1 (matmul: ``Q = O(mn + mk + nk)``) and
  Lemma III.4 (QR: ``Q = O(mn)``) — the paper drops the ``mnk/√H`` term by
  assuming ``ν ≤ γ·√H``, and so do we.
"""

from __future__ import annotations

import numpy as np

from repro.bsp.group import RankGroup
from repro.bsp.machine import BSPMachine


def _span_group(ranks) -> RankGroup | None:
    """Rank spec as a RankGroup for span labelling, when it is one."""
    return ranks if isinstance(ranks, RankGroup) else None


def matmul_flops(m: int, n: int, k: int) -> float:
    """Flop count of an m×n by n×k product (multiply + add).

    Element-wise on float64 dimension arrays too, bit-equal to the int
    form: the products are exact integers in float64.
    """
    return 2.0 * m * n * k


def qr_flops(m: int, n: int) -> float:
    """Flop count of Householder QR of an m×n matrix (m >= n); element-wise
    on float64 arrays like :func:`matmul_flops` (both terms are exact
    before the one subtraction)."""
    return 2.0 * m * n * n - (2.0 / 3.0) * n**3


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
