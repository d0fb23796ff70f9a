"""Theorem III.6 — rect-QR across aspect ratios.

Sweeps m/n from square-ish to extremely tall-skinny at fixed p, comparing
measured W against the theorem's  m^δ n^{2−δ}/p^δ + mn/p  and checking the
regime hand-off: for tall matrices the mn/p (TSQR) term dominates; toward
square shapes the m^δ n^{2−δ}/p^δ (base-case) term takes over.
"""

import numpy as np

from repro.bsp import BSPMachine
from repro.blocks.rect_qr import rect_qr
from repro.model.costs import rect_qr_cost
from repro.report.tables import format_table
from repro.util.matrices import _rng

from _common import write_result

P = 16
CASES = [(8192, 8), (4096, 16), (1024, 32), (256, 64), (128, 128)]


def run_experiment():
    rows = []
    resids = []
    for m, n in CASES:
        mach = BSPMachine(P)
        a = _rng(3).standard_normal((m, n))
        u, t, r = rect_qr(mach, mach.world, a)
        q_thin = np.eye(m, n) - u @ (t @ u[:n, :].T)
        resid = np.abs(q_thin @ r - a).max()
        resids.append(resid)
        rep = mach.cost()
        pred = rect_qr_cost(m, n, P)
        rows.append([f"{m}x{n}", m / n, rep.W, pred.W, rep.W / pred.W, rep.S, rep.F])
    return rows, resids


def test_rect_qr():
    rows, resids = run_experiment()
    table = format_table(
        ["shape", "m/n", "W measured", "W predicted", "ratio", "S", "F"],
        rows,
        title=f"Theorem III.6 rect-QR (p={P})",
    )
    write_result("thm_III6_rect_qr", table)

    # Numerically exact factorizations at every shape.
    assert max(resids) < 1e-8
    # Measured within constants+logs of the bound everywhere.
    for row in rows:
        assert row[4] < 30.0, f"{row[0]}: W ratio {row[4]}"
    # Work efficiency: F ≈ 2mn²/p within constants, across the sweep.
    for (m, n), row in zip(CASES, rows):
        assert row[6] < 25 * 2 * m * n * n / P
