#!/usr/bin/env python3
"""Tuning the replication factor for a machine (Section V).

"Employing a large c is attractive for bandwidth-constrained problems on
massively-parallel architectures" — this example makes that concrete.  For
three machine profiles (bandwidth-bound, latency-bound, balanced) it:

1. sweeps δ ∈ [1/2, 2/3] through the closed-form Theorem IV.4 cost model,
2. picks δ* with :func:`repro.model.best_delta` under the memory budget,
3. validates the model's preference by *measuring* the full-to-band stage
   at the competing grid shapes and comparing modeled times.

Run:  python examples/machine_tuning.py
"""

from repro import BSPMachine, MachineParams
from repro.dist.grid import ProcGrid, factor_2p5d
from repro.eig.full_to_band import full_to_band_2p5d
from repro.model.tuning import best_delta, tuning_table
from repro.report.tables import format_table
from repro.util import random_symmetric

PROFILES = {
    "bandwidth-bound": MachineParams(gamma=1.0, beta=1000.0, nu=10.0, alpha=1e4),
    "latency-bound": MachineParams(gamma=1.0, beta=20.0, nu=5.0, alpha=1e8),
    "balanced": MachineParams(),
}

N_MODEL, P_MODEL = 65536, 32768  # the regime the paper targets (model only)
N_MEAS, P_MEAS, B_MEAS = 384, 64, 48  # what we can simulate and measure


def main() -> None:
    for name, params in PROFILES.items():
        d_star, t_star = best_delta(N_MODEL, P_MODEL, params)
        print(f"{name:17s}: best delta = {d_star:.3f} "
              f"(c = {P_MODEL ** (2 * d_star - 1):.1f}), modeled T = {t_star:.4g}")
    print()

    rows = [
        [r["delta"], r["c"], r["W"], r["S"], r["memory_words"], r["time"]]
        for r in tuning_table(N_MODEL, P_MODEL, PROFILES["bandwidth-bound"])
    ]
    print(format_table(
        ["delta", "c", "W", "S", "M/rank", "modeled T"],
        rows,
        title=f"tuning table, bandwidth-bound machine (n={N_MODEL}, p={P_MODEL})",
    ))
    print()

    # Measured validation at simulable scale: run full-to-band on both grid
    # shapes and price the measured costs with each machine profile.
    a = random_symmetric(N_MEAS, seed=0)
    measured = {}
    for delta in (0.5, 2.0 / 3.0):
        q, c = factor_2p5d(P_MEAS, delta)
        mach = BSPMachine(P_MEAS)
        full_to_band_2p5d(mach, ProcGrid(mach, (q, q, c)), a, B_MEAS)
        measured[delta] = (c, mach.cost())
    rows = []
    for name, params in PROFILES.items():
        t_2d, t_rep = (
            params.time(r.flops, r.words, r.mem_traffic, r.supersteps)
            for r in (measured[0.5][1], measured[2.0 / 3.0][1])
        )
        rows.append([name, t_2d, t_rep, "replicated" if t_rep < t_2d else "2-D"])
    print(format_table(
        ["machine", "T at c=1", f"T at c={measured[2/3][0]}", "winner"],
        rows,
        title=f"measured full-to-band, priced per machine (n={N_MEAS}, p={P_MEAS})",
    ))


if __name__ == "__main__":
    main()
