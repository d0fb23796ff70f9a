"""Regression fixture: the pre-fix ``eig/scalapack_like.py`` cost leak.

Condensed copy of the trailing-matrix update as it stood before the fix
routed it through ``repro.bsp.kernels``: the matvec, the ``np.dot(w, v)``
correction, and the outer-product rank-2 update performed raw numpy math
while only part of the work was charged.  ``tests/test_numerics_charged.py``
must keep detecting this exact shape so the leak cannot regress.
"""

import numpy as np


def trailing_update_prefix(machine, group, a, j, v, tau, p):
    nbar = a.shape[0] - j - 1
    machine.charge_flops(group, 2.0 * nbar * nbar / p)
    if tau != 0.0:
        w = tau * (a[j + 1 :, j + 1 :] @ v)  # MARK:leak-matvec
        w -= (0.5 * tau * np.dot(w, v)) * v  # MARK:leak-dot
        a[j + 1 :, j + 1 :] -= np.outer(v, w) + np.outer(w, v)  # MARK:leak-outer
    return a
