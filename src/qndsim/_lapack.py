"""LAPACK dgttrf and dgttrs from the OpenBLAS that numpy's wheel bundles.

A spline fit factors its grid's tridiagonal band once (dgttrf) and solves every
real right-hand side against the factors (dgttrs); a complex curve is fitted as its
real and imaginary parts.  numpy >= 2's Linux wheels ship OpenBLAS in `numpy.libs/`
(64-bit integers, symbols `scipy_<name>_64_`) and map it on `import numpy`; calling
it through ctypes costs no further import.  Builds without it (numpy 1.x, macOS,
Windows, conda, distributions) use scipy.linalg's wrappers of the same routines,
imported at the first call; that is why scipy stays a runtime dependency.

`dgttrf` returns the band's solver, which closes over dgttrf's factors and pivot
indices: whichever library made them, they never leave this module, so no call
passes them back in to be checked again.
"""

from __future__ import annotations

import ctypes
import glob
import os
from typing import Callable

import numpy as np


def _bundled():
    """dgttrf and dgttrs of the bundled OpenBLAS, or (None, None) when they are not there."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        lib = ctypes.CDLL(path)  # already mapped by numpy: the same handle
        try:
            dgttrf, dgttrs = lib.scipy_dgttrf_64_, lib.scipy_dgttrs_64_
        except AttributeError:
            continue
        dgttrf.argtypes, dgttrf.restype = [ctypes.c_void_p] * 7, None
        # TRANS, then ten pointers, then the hidden length of TRANS
        dgttrs.argtypes = [ctypes.c_char_p] + [ctypes.c_void_p] * 10 + [ctypes.c_size_t]
        dgttrs.restype = None
        return dgttrf, dgttrs
    return None, None


_DGTTRF, _DGTTRS = _bundled()


def _fortran_rhs(rhs: np.ndarray, n: int) -> np.ndarray:
    """rhs as a Fortran-ordered float64 array (itself when it is one); refuses what is
    not a real (n, nrhs) array."""
    if np.iscomplexobj(rhs) or np.ndim(rhs) != 2 or len(rhs) != n:
        raise ValueError("dgttrs needs a real (n, nrhs) rhs for the n-row band")
    return np.asfortranarray(rhs, dtype=np.float64)


def dgttrf(lower, diag, upper) -> tuple[Callable[[np.ndarray], np.ndarray], int]:
    """Factor the real tridiagonal band (sub-, main, super-diagonal, n >= 2 rows).

    Returns `solve` and LAPACK's info; the band is not modified.  `solve(rhs)` runs
    dgttrs against the factors for the real (n, nrhs) rhs and returns the solution,
    Fortran-ordered (in rhs's memory when rhs is a Fortran-ordered float64 array).
    dgttrs cannot fail on a factored band (its info reports only an illegal argument),
    so `solve` returns no info.
    """
    n = len(diag)
    if n < 2 or not len(lower) == len(upper) == n - 1:
        raise ValueError("dgttrf needs a band of n >= 2, n - 1 and n - 1 values")
    if _DGTTRF is None:
        from scipy.linalg.lapack import dgttrf as scipy_dgttrf, dgttrs as scipy_dgttrs

        *factors, ipiv, info = scipy_dgttrf(lower, diag, upper)

        def solve(rhs: np.ndarray) -> np.ndarray:
            return scipy_dgttrs(*factors, ipiv, _fortran_rhs(rhs, n), overwrite_b=1)[0]

        return solve, int(info)
    factors = np.zeros(4 * n - 4)  # dl, d, du, du2 back to back
    factors[: 3 * n - 2] = np.concatenate((lower, diag, upper))
    ipiv = np.empty(n, dtype=np.int64)
    ints = np.array([n, 0], dtype=np.int64)  # N, INFO
    p, i = factors.ctypes.data, ints.ctypes.data
    _DGTTRF(i, p, p + 8 * (n - 1), p + 8 * (2 * n - 1), p + 8 * (3 * n - 2),
            ipiv.ctypes.data, i + 8)

    def solve(rhs: np.ndarray) -> np.ndarray:
        b = _fortran_rhs(rhs, n)
        sizes = np.array([n, b.shape[1], 0], dtype=np.int64)  # N (also LDB), NRHS, INFO
        # the addresses are looked up here, so the closure holds the arrays they point into
        p, i = factors.ctypes.data, sizes.ctypes.data
        _DGTTRS(b"N", i, i + 8, p, p + 8 * (n - 1), p + 8 * (2 * n - 1), p + 8 * (3 * n - 2),
                ipiv.ctypes.data, b.ctypes.data, i, i + 16, 1)
        return b

    return solve, int(ints[1])
