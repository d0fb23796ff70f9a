"""Parallel building blocks of Section III.

* :func:`carma_matmul` — communication-optimal recursive rectangular matrix
  multiplication (Lemma III.2, after Demmel et al. IPDPS'13).
* :func:`streaming_matmul` — multiplication against a replicated operand on
  a q×q×c grid (Algorithm III.1 / Lemma III.3).
* :func:`tsqr` — tall-skinny QR on a binary reduction tree with Householder
  reconstruction (building block of Algorithm III.2).
* :func:`square_qr` — panel-recursive QR for (nearly) square matrices, the
  Lemma III.5 substitute (see DESIGN.md §7).
* :func:`rect_qr` — Algorithm III.2: rectangular QR via a binary row tree
  with square base cases (Theorem III.6), returning Householder form
  (Corollary III.7).
"""

from repro.blocks.matmul import carma_matmul
from repro.blocks.streaming import streaming_matmul
from repro.blocks.tsqr import tsqr
from repro.blocks.square_qr import square_qr
from repro.blocks.square_qr_25d import square_qr_25d
from repro.blocks.rect_qr import rect_qr

__all__ = [
    "carma_matmul",
    "streaming_matmul",
    "tsqr",
    "square_qr",
    "square_qr_25d",
    "rect_qr",
]
