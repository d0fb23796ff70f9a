"""The two LAPACK routines of the sequential finish, from the LAPACK numpy loads.

``numpy.linalg`` wraps neither ``dsbtrd`` (band → tridiagonal) nor
``dstebz`` (Sturm bisection), but numpy's wheels bundle an OpenBLAS,
already loaded for ``np.linalg``, that exports them as ``scipy_<name>_64_``
(Fortran ABI, 64-bit integers, a hidden ``size_t`` length per character
argument): binding them costs no memory and no import time.  A numpy built
against another LAPACK bundles none; :func:`routine` then takes scipy's
``cython_lapack`` capsule (32-bit integers, no hidden lengths).
"""

from __future__ import annotations

import ctypes
from functools import lru_cache
from pathlib import Path
from typing import Any

import numpy as np

#: where a numpy wheel keeps the libraries it bundles
NUMPY_LIBS = Path(np.__file__).resolve().parent.parent / "numpy.libs"


@lru_cache(maxsize=None)
def routine(name: str) -> tuple[Any, type[ctypes.c_int64] | type[ctypes.c_int32], bool]:
    """LAPACK routine ``name`` as (function, its integer type, whether it
    takes the hidden character lengths)."""
    bundled = sorted(NUMPY_LIBS.glob("*openblas64*"))
    if bundled:
        return getattr(ctypes.CDLL(str(bundled[0])), f"scipy_{name}_64_"), ctypes.c_int64, True
    from scipy.linalg import cython_lapack

    capsule, api = cython_lapack.__pyx_capi__[name], ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(("PyCapsule_GetPointer", api))
    return ctypes.CFUNCTYPE(None)(get_pointer(capsule, get_name(capsule))), ctypes.c_int32, False


def _call(name: str, *args: Any) -> None:
    """Call ``name`` with every argument by reference (a str a character, an
    int or float an input scalar, an array its data, a ctypes integer an
    output), then ``info``: ``RuntimeError`` unless it is 0."""
    fn, int_t, hidden = routine(name)
    info = int_t(0)
    refs: list[Any] = []
    for arg in (*args, info):
        if isinstance(arg, str):
            refs.append(ctypes.c_char_p(arg.encode()))
            continue
        if isinstance(arg, (int, float)):
            arg = int_t(arg) if isinstance(arg, int) else ctypes.c_double(arg)
        elif isinstance(arg, np.ndarray):
            arg = ctypes.c_char.from_buffer(arg)
        refs.append(ctypes.byref(arg))
    fn(*refs, *[ctypes.c_size_t(1) for arg in args if hidden and isinstance(arg, str)])
    if info.value:
        raise RuntimeError(f"LAPACK {name} returned info = {info.value}")


def dsbtrd(ab: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, e) of the symmetric band in lower storage ``ab`` ((kd+1, n),
    ``ab[i − j, j] = A[i, j]``), left unmodified: ``dsbtrd('N', 'L')``."""
    kd1, n = ab.shape
    band = np.array(ab.T, dtype=np.float64, order="C")  # column-major ab, which dsbtrd overwrites
    d, e = np.empty(n), np.empty(max(n, 2) - 1)
    _call("dsbtrd", "N", "L", n, kd1 - 1, band, kd1, d, e, np.empty(1), 1, np.empty(n))
    return d, e[: max(n - 1, 0)]


def dstebz(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The eigenvalues of tridiag(d, e) bisection finds, ascending:
    ``dstebz('A', 'E')`` at its default tolerance."""
    n, int_t = d.size, routine("dstebz")[1]
    found, nsplit = int_t(0), int_t(0)
    de, w = np.concatenate((d, e, [0.0]), dtype=np.float64), np.empty(n)  # e padded: n = 1 holds none
    _call("dstebz", "A", "E", n, 0.0, 0.0, 0, 0, 0.0, de[:n], de[n:], found, nsplit, w,
          np.empty(n, int_t), np.empty(n, int_t), np.empty(4 * n), np.empty(3 * n, int_t))
    return w[: found.value]
