"""repro — a reproduction of "A Communication-Avoiding Parallel Algorithm
for the Symmetric Eigenvalue Problem" (Solomonik, Ballard, Demmel, Hoefler;
SPAA 2017).

The library computes all eigenvalues of a dense symmetric matrix with the
paper's 2.5D successive-band-reduction pipeline, executed on a *simulated*
BSP machine that measures the four cost quantities the paper bounds
(F flops, W horizontal words, Q vertical words, S supersteps).

Quickstart::

    import numpy as np
    from repro import BSPMachine, eigensolve_2p5d
    from repro.util import random_symmetric

    machine = BSPMachine(p=64)
    a = random_symmetric(256, seed=0)
    result = eigensolve_2p5d(machine, a, delta=2/3)
    print(result.eigenvalues[:5])
    print(result.cost.summary())      # measured F / W / Q / S

Package map:

==============  =====================================================
``repro.bsp``    simulated BSP machine, collectives, cache model
``repro.dist``   processor grids, distributed banded matrices
``repro.linalg`` sequential numerics (Householder, SBR, tridiagonal)
``repro.blocks`` parallel building blocks (CARMA, streaming MM, TSQR,
                 square-QR, rect-QR) — Section III
``repro.eig``    the eigensolvers and Table I baselines — Section IV
``repro.model``  closed-form cost bounds, Table I, tuning
``repro.report`` ASCII tables and the paper's Figures 1–2
``repro.faults`` seeded fault injection, ABFT detection, recovery
``repro.serve``  batched eigensolver service: workload traces, machine
                 pool, bin-packing scheduler, persistent δ-tuning cache
==============  =====================================================
"""

from repro.bsp import BSPMachine, CostReport, MachineParams, RankGroup
from repro.dist import DistBandMatrix, ProcGrid
from repro.eig import (
    EigensolveResult,
    band_to_band_2p5d,
    ca_sbr_halve,
    eigensolve_2p5d,
    eigensolve_ca_sbr,
    eigensolve_elpa_like,
    eigensolve_scalapack_like,
    full_to_band_2p5d,
)
from repro.faults import FaultPlan, FaultyMachine
from repro.model import eigensolver_2p5d_cost, render_table1
from repro.serve import EigenService, MachinePool, TuningCache

__version__ = "1.0.0"

__all__ = [
    "BSPMachine",
    "MachineParams",
    "CostReport",
    "RankGroup",
    "ProcGrid",
    "DistBandMatrix",
    "eigensolve_2p5d",
    "EigensolveResult",
    "full_to_band_2p5d",
    "band_to_band_2p5d",
    "ca_sbr_halve",
    "eigensolve_scalapack_like",
    "eigensolve_elpa_like",
    "eigensolve_ca_sbr",
    "eigensolver_2p5d_cost",
    "render_table1",
    "FaultyMachine",
    "FaultPlan",
    "EigenService",
    "MachinePool",
    "TuningCache",
    "__version__",
]
