#!/usr/bin/env python3
"""Quickstart: eigenvalues of a symmetric matrix on a simulated BSP machine.

Builds a 256×256 symmetric matrix, solves it with the paper's 2.5D
communication-avoiding pipeline on a simulated 64-processor machine, checks
the spectrum against numpy, and prints the measured BSP cost breakdown
(F flops, W horizontal words, Q vertical words, S supersteps) per stage.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import BSPMachine, eigensolve_2p5d
from repro.util import random_symmetric


def main() -> None:
    n, p = 256, 64
    a = random_symmetric(n, seed=42)

    machine = BSPMachine(p)
    result = eigensolve_2p5d(machine, a, delta=2.0 / 3.0)

    ref = np.linalg.eigvalsh(a)
    err = np.abs(result.eigenvalues - ref).max()

    print(f"n = {n}, p = {p}, replication c = {result.replication} "
          f"(delta = {result.delta:.3f}), initial band-width b = {result.initial_bandwidth}")
    print(f"five smallest eigenvalues: {np.round(result.eigenvalues[:5], 6)}")
    print(f"max |lambda - numpy|:      {err:.3e}")
    print()
    print("measured BSP cost per stage (max over ranks):")
    print(result.stage_summary())
    print()
    c = result.cost
    t = machine.params.time(c.flops, c.words, c.mem_traffic, c.supersteps)
    print(f"modeled execution time on the default machine: {t:.4g} "
          f"(gamma*F + beta*W + nu*Q + alpha*S)")

    assert err < 1e-8, "spectrum mismatch"


if __name__ == "__main__":
    main()
