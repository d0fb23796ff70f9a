"""Section V — the (δ, c) tuning space: memory for bandwidth.

Sweeps δ across [1/2, 2/3] on the model *and* the measured full-to-band
stage, and checks that the tuner picks the δ a bandwidth-bound machine wants
(max replication) vs what a latency-bound machine wants (none), with the
measured W·M product tracking the lower-bound trade curve
W = Ω(n³/(p·√M)) ⇔ W·√M = Ω(n³/p).
"""

import numpy as np

from repro.bsp import BSPMachine, MachineParams
from repro.dist.grid import ProcGrid
from repro.eig.full_to_band import full_to_band_2p5d
from repro.model.bounds import memory_dependent_lower_bound
from repro.model.tuning import best_delta, tuning_table
from repro.report.tables import format_table
from repro.util.matrices import random_symmetric

from _common import write_result

N, B, P = 512, 64, 256
GRIDS = [(16, 16, 1), (8, 8, 4), (4, 4, 16)]


def run_experiment():
    a = random_symmetric(N, seed=6)
    measured = []
    for shape in GRIDS:
        mach = BSPMachine(P)
        full_to_band_2p5d(mach, ProcGrid(mach, shape), a, B)
        rep = mach.cost()
        lower = memory_dependent_lower_bound(N, P, max(rep.M, 1.0))
        measured.append([shape[2], rep.W, rep.M, lower, rep.W / lower])
    model_rows = [
        [r["delta"], r["c"], r["W"], r["memory_words"], r["time"]]
        for r in tuning_table(N, P, MachineParams())
    ]
    d_bw, _ = best_delta(8192, 4096, MachineParams(gamma=0, beta=1, nu=0, alpha=0))
    d_lat, _ = best_delta(8192, 4096, MachineParams(gamma=0, beta=0, nu=0, alpha=1))
    return measured, model_rows, d_bw, d_lat


def test_tradeoff():
    measured, model_rows, d_bw, d_lat = run_experiment()
    m_table = format_table(
        ["c", "W measured", "M measured", "W lower bound", "W/bound"],
        measured,
        title=f"measured memory/bandwidth trade (full-to-band, n={N}, p={P})",
    )
    mod_table = format_table(
        ["delta", "c", "W model", "M model", "time model"],
        model_rows,
        title="model tuning table",
    )
    write_result(
        "tradeoff",
        m_table + "\n\n" + mod_table + f"\n\nbandwidth-bound best delta: {d_bw:.3f}"
        f"\nlatency-bound best delta:   {d_lat:.3f}",
    )

    # Tuner picks the endpoints for the extreme machines.
    assert abs(d_bw - 2.0 / 3.0) < 1e-6
    assert abs(d_lat - 0.5) < 1e-6
    # Measured points sit above (but within constants of) the lower bound,
    # and more memory buys less communication.
    for c, w, m, lower, ratio in measured:
        assert ratio >= 1.0, "nobody beats the lower bound"
        assert ratio < 200.0
    assert measured[1][1] < measured[0][1]  # W drops c=1 -> 4
    assert measured[1][2] > measured[0][2]  # M grows
