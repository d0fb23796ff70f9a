"""Sequential dense/banded linear algebra.

This package is the numerical substrate of the reproduction: Householder
transformations and their compact-WY aggregation, non-pivoted LU (for
Householder reconstruction), successive band reduction via bulge
chasing, band → tridiagonal reduction, and Sturm-bisection tridiagonal
eigenvalues.

numpy is used for array storage and BLAS-like primitives.  Where a real
rank would call LAPACK, so does this package: the local Householder QR is
``dgeqrf`` through ``numpy.linalg``, and the sequential finish is ``dsbtrd``
and ``dstebz`` (:mod:`repro.linalg.lapack`).  The rest is implemented here.
"""

from repro.linalg.householder import (
    apply_block_reflector_left,
    compact_wy_qr,
    householder_vector,
)
from repro.linalg.tridiag import sturm_bisection_eigenvalues
from repro.linalg.reconstruct import householder_reconstruct

__all__ = [
    "apply_block_reflector_left",
    "compact_wy_qr",
    "householder_vector",
    "sturm_bisection_eigenvalues",
    "householder_reconstruct",
]
