"""Shared infrastructure for the paper-table harness.

Every ``bench_*.py`` (one per table/figure of the paper, plus one per cost
lemma) runs its experiment once on the simulated machine, writes the
resulting table to ``benchmarks/results/<name>.txt`` and asserts the paper's
*shape* claims (scaling exponents, who wins, crossovers) — absolute
constants are implementation-specific and are not asserted.

Every printed column is a simulated count or a model value, so the tables
are deterministic: CI regenerates them (``python -m pytest
benchmarks/bench_*.py``) and fails on ``git diff -- benchmarks/results/``.
Host numerics (residuals, eigenvalue errors) are asserted, never printed.
Nothing here is timed — host time is measured by ``benchmarks/e2e`` only.
"""

from __future__ import annotations

import pathlib

import numpy as np

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def write_result(name: str, text: str) -> pathlib.Path:
    """Persist an experiment's output table; also echo it to stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}\n")
    return path


def spectrum_bound(ref: np.ndarray) -> float:
    """The backward-error yardstick ``4·n·ε·‖A‖₂`` for a computed spectrum,
    from the reference eigenvalues of A (the ``benchmarks/e2e`` hard check)."""
    return 4.0 * ref.size * np.finfo(np.float64).eps * float(np.abs(ref).max())
