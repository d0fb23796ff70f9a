"""Processor grids and the distributed band matrix.

The parallel algorithms execute orchestrated (sequential Python, global
numpy arrays).  Dense operands carry no layout object: the blocks and
stages charge their data motion by operand shape and executing group
through :mod:`repro.bsp.kernels` and :mod:`repro.bsp.collectives`.  What
lives here is the two pieces of distribution state the algorithms do hold:

* :class:`ProcGrid` — an N-dimensional grid over a subset of machine ranks
  (the paper's q×q×c grids, their layers, and their sub-grids).
* :class:`DistBandMatrix` — 1-D column-block layout of a symmetric band
  matrix; window fetches / stores, gather and redistribution charge the
  machine by column ownership.
"""

from repro.dist.grid import ProcGrid
from repro.dist.banded import DistBandMatrix

__all__ = [
    "ProcGrid",
    "DistBandMatrix",
]
