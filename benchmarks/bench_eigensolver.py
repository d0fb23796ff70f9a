"""Theorem IV.4 — the complete 2.5D eigensolver.

Strong-scaling sweep of the full pipeline at δ = 1/2 vs δ = 2/3, asserting:

* spectra stay correct at every point (max |λ − λ_LAPACK| ≤ 4·n·ε·‖A‖₂ —
  host numerics are asserted, not printed: the table is simulated counts),
* W decreases with p for both settings,
* the replicated setting's S is larger (the paper's trade: √c more
  synchronization for √c less bandwidth),
* work efficiency: max-rank F stays within constants of 2n³/p.
"""

import numpy as np

from repro.bsp import BSPMachine
from repro.eig import eigensolve_2p5d
from repro.report.tables import fit_exponent, format_table
from repro.util.matrices import random_symmetric

from _common import spectrum_bound, write_result

N = 384
P_SWEEP = (16, 64, 256)


def run_experiment():
    a = random_symmetric(N, seed=5)
    ref = np.linalg.eigvalsh(a)
    rows = []
    data = {}
    for delta in (0.5, 2.0 / 3.0):
        for p in P_SWEEP:
            res = eigensolve_2p5d(BSPMachine(p), a, delta=delta)
            err = np.abs(res.eigenvalues - ref).max()
            assert err <= spectrum_bound(ref), f"delta={delta} p={p}: |eig err| = {err}"
            rows.append([delta, p, res.replication, res.cost.W, res.cost.S, res.cost.F])
            data[(delta, p)] = res.cost
    return rows, data


def test_eigensolver_scaling():
    rows, data = run_experiment()
    table = format_table(
        ["delta", "p", "c", "W", "S", "F (max rank)"],
        rows,
        title=f"Theorem IV.4 strong scaling (n={N})",
    )
    write_result("thm_IV4_eigensolver", table)

    for delta in (0.5, 2.0 / 3.0):
        ws = [data[(delta, p)].W for p in P_SWEEP]
        exp = fit_exponent(P_SWEEP, ws)
        assert exp < -0.15, f"W must decrease with p at delta={delta}: {exp}"
    # The replicated pipeline synchronizes more at equal p (trading α for β).
    for p in P_SWEEP[1:]:
        assert data[(2.0 / 3.0, p)].S > data[(0.5, p)].S
    # Work efficiency within constants (the O(n²)-flop bisection finish and
    # stage paddings account for the slack at this n).
    for p in P_SWEEP:
        assert data[(0.5, p)].F < 120 * 2 * N**3 / p + 400 * N * N
