"""Sequential dense/banded linear algebra written from scratch.

This package is the numerical substrate of the reproduction: Householder
transformations and their compact-WY aggregation, non-pivoted LU (for
Householder reconstruction), successive band reduction via bulge
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
from repro.linalg.tridiag import sturm_bisection_eigenvalues
from repro.linalg.reconstruct import householder_reconstruct

__all__ = [
    "apply_block_reflector_left",
    "compact_wy_qr",
    "householder_vector",
    "sturm_bisection_eigenvalues",
    "householder_reconstruct",
]
