"""Sequential dense/banded linear algebra written from scratch.

This package is the numerical substrate of the reproduction: Householder
transformations and their compact-WY aggregation, blocked QR, non-pivoted LU
(for Householder reconstruction), successive band reduction via bulge
chasing, band → tridiagonal reduction, and Sturm-bisection tridiagonal
eigenvalues.

numpy is used only for array storage and BLAS-like primitives (``@``, slicing,
norms); all factorization logic is implemented here and validated against
``numpy.linalg`` in the tests.
"""

from repro.linalg.householder import (
    apply_block_reflector_left,
    compact_wy_qr,
    householder_vector,
)
from repro.linalg.qr import blocked_qr, householder_qr
from repro.linalg.lu import lu_nopivot
from repro.linalg.tridiag import (
    eigenvalue_count_below,
    sturm_bisection_eigenvalues,
)
from repro.linalg.sbr import band_reduce_seq, full_to_band_seq, tridiagonalize_band_seq
from repro.linalg.reconstruct import householder_reconstruct

__all__ = [
    "apply_block_reflector_left",
    "compact_wy_qr",
    "householder_vector",
    "blocked_qr",
    "householder_qr",
    "lu_nopivot",
    "eigenvalue_count_below",
    "sturm_bisection_eigenvalues",
    "band_reduce_seq",
    "full_to_band_seq",
    "tridiagonalize_band_seq",
    "householder_reconstruct",
]
