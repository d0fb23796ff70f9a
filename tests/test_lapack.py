"""The LAPACK binding of the sequential finish (``repro.linalg.lapack``)."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.linalg import lapack
from repro.linalg.band_tridiag import band_to_tridiagonal_storage, extract_band
from repro.linalg.tridiag import sturm_bisection_eigenvalues
from repro.util.matrices import random_banded_symmetric

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")
EPS = np.finfo(np.float64).eps


def test_a_solve_imports_no_scipy():
    """The binding reaches numpy's own OpenBLAS: a whole solve leaves scipy
    (≈ 28 MB and 0.2 s per process) unimported."""
    script = (
        "import sys\n"
        "from repro.bsp import BSPMachine\n"
        "from repro.eig import eigensolve_2p5d\n"
        "from repro.util.matrices import random_symmetric\n"
        "eigensolve_2p5d(BSPMachine(16), random_symmetric(64, seed=1), delta=0.5)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=SRC_DIR),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("n,b", [(1, 0), (2, 1), (33, 4), (96, 12)])
def test_scipy_fallback_agrees_with_numpys_lapack(n, b, tmp_path, monkeypatch):
    """The capsule route — taken where numpy bundles no OpenBLAS; 32-bit
    integers, no hidden lengths — computes what the bundled one does, to
    the finish's backward-error bound: an ABI change fails here, not in a
    solve."""
    data = extract_band(random_banded_symmetric(n, b, seed=n), b)
    bundled = sturm_bisection_eigenvalues(*band_to_tridiagonal_storage(data, b))
    assert lapack.routine("dstebz")[1:] == (ctypes.c_int64, True)
    monkeypatch.setattr(lapack, "NUMPY_LIBS", tmp_path)  # an empty numpy.libs
    lapack.routine.cache_clear()
    try:
        fallback = sturm_bisection_eigenvalues(*band_to_tridiagonal_storage(data, b))
        assert lapack.routine("dsbtrd")[1:] == lapack.routine("dstebz")[1:] == (ctypes.c_int32, False)
    finally:
        lapack.routine.cache_clear()
    assert np.abs(fallback - bundled).max() <= n * EPS * np.abs(bundled).max()
