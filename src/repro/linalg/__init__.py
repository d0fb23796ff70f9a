"""Sequential dense/banded linear algebra written from scratch.

This package is the numerical substrate of the reproduction: Householder
transformations and their compact-WY aggregation, non-pivoted LU (for
Householder reconstruction), successive band reduction via bulge
chasing, band → tridiagonal reduction, and Sturm-bisection tridiagonal
eigenvalues.

numpy is used for array storage and BLAS-like primitives (``@``, slicing,
norms).  The one exception is a rank's local Householder QR, which calls
LAPACK's ``dgeqrf`` (and forms ``T`` with one small inverse) through
``numpy.linalg``, as a real rank would; every other factorization is
implemented here and validated against ``numpy.linalg`` in the tests.
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
