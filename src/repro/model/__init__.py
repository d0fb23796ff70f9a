"""Closed-form asymptotic cost models and Table I generation.

:mod:`repro.model.costs` encodes every cost bound stated in the paper as an
explicit function of (n, p, δ, …); :mod:`repro.model.table1` renders Table I
and evaluates it numerically; :mod:`repro.model.tuning` picks (δ, c, b) for
given machine parameters; :mod:`repro.model.bounds` holds the communication
lower bound the paper cites.
"""

from repro.model.costs import (
    AsymptoticCost,
    carma_cost,
    ca_sbr_eigensolver_cost,
    band_to_band_cost,
    elpa_cost,
    eigensolver_2p5d_cost,
    full_to_band_cost,
    rect_qr_cost,
    scalapack_cost,
    streaming_mm_cost,
)
from repro.model.table1 import TABLE1_ROWS, render_table1, table1_numeric
from repro.model.tuning import best_delta, predicted_time, tuning_table
from repro.model.bounds import memory_dependent_lower_bound

__all__ = [
    "AsymptoticCost",
    "carma_cost",
    "streaming_mm_cost",
    "rect_qr_cost",
    "full_to_band_cost",
    "band_to_band_cost",
    "eigensolver_2p5d_cost",
    "scalapack_cost",
    "elpa_cost",
    "ca_sbr_eigensolver_cost",
    "TABLE1_ROWS",
    "render_table1",
    "table1_numeric",
    "best_delta",
    "predicted_time",
    "tuning_table",
    "memory_dependent_lower_bound",
]
