"""Lemma III.2 — CARMA rectangular matmul: the three cost regimes.

Sweeps matrix shapes across the lemma's 1D / 2D / 3D regimes at fixed p and
checks the measured W against the closed-form bound, plus the
memory-communication trade-off (a tight budget inflates W and S).
"""

import math

from repro.bsp import BSPMachine
from repro.blocks.matmul import carma_matmul
from repro.model.costs import carma_cost
from repro.report.tables import format_table
from repro.util.matrices import _rng

from _common import write_result

P = 64
SHAPES = [
    ("1D tall", 8192, 16, 16),
    ("1D wide", 16, 16, 8192),
    ("2D", 1024, 1024, 16),
    ("3D cube", 256, 256, 256),
]


def run_experiment():
    rows = []
    for label, m, n, k in SHAPES:
        mach = BSPMachine(P)
        r = _rng(1)
        a = r.standard_normal((m, n))
        b = r.standard_normal((n, k))
        carma_matmul(mach, mach.world, a, b)
        rep = mach.cost()
        pred = carma_cost(m, n, k, P)
        rows.append([label, f"{m}x{n}x{k}", rep.W, pred.W, rep.W / pred.W, rep.S])
    # Memory-constrained run (3D shape).
    m = n = k = 256
    mach_free = BSPMachine(P)
    r = _rng(1)
    a = r.standard_normal((m, n))
    b = r.standard_normal((n, k))
    carma_matmul(mach_free, mach_free.world, a, b)
    budget = (m * n + n * k + m * k) / P * 1.2
    mach_tight = BSPMachine(P)
    carma_matmul(mach_tight, mach_tight.world, a, b, memory_words=budget)
    return rows, mach_free.cost(), mach_tight.cost()


def test_matmul_regimes():
    rows, free, tight = run_experiment()
    table = format_table(
        ["regime", "shape", "W measured", "W predicted", "ratio", "S"],
        rows,
        title=f"Lemma III.2 regimes (p={P})",
    )
    mem_table = format_table(
        ["memory", "W", "S", "peak M"],
        [
            ["unbounded", free.W, free.S, free.M],
            ["1.2x inputs", tight.W, tight.S, tight.M],
        ],
        title="memory/communication trade-off (v parameter)",
    )
    write_result("lemma_III2_matmul", table + "\n\n" + mem_table)

    # Every regime within a constant factor of the bound.
    for label, shape, w, wp, ratio, s in rows:
        assert ratio < 8.0, f"{label}: measured/predicted W = {ratio}"
        assert s <= 40 * math.log2(P)
    # The 3D shape must be communication-cheaper than its 2D embedding:
    # (mnk/p)^{2/3} < sizes/sqrt(p) territory.
    w_3d = rows[3][2]
    pred_2d_style = 3 * 256 * 256 / math.sqrt(P)
    assert w_3d < 4 * pred_2d_style
    # Memory pressure strictly inflates communication (DFS steps).
    assert tight.W > free.W
    assert tight.M <= free.M
