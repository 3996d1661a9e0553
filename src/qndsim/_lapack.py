"""LAPACK dgttrf and dgttrs from the OpenBLAS that numpy's wheel bundles.

A spline fit factors its grid's tridiagonal band once (dgttrf) and solves every
real right-hand side against the factors (dgttrs); a complex curve is fitted as its
real and imaginary parts.  numpy >= 2's Linux wheels ship OpenBLAS in `numpy.libs/`
(64-bit integers, symbols `scipy_<name>_64_`) and map it on `import numpy`; calling
it through ctypes costs no further import.  Builds without it (numpy 1.x, macOS,
Windows, conda, distributions) use scipy.linalg's wrappers of the same routines,
imported at the first call; that is why scipy stays a runtime dependency.

The factors travel as one float64 array holding dgttrf's dl, d, du and du2 back to
back (4 n - 4 values) and the pivot indices as int64, whichever library made them.
"""

from __future__ import annotations

import ctypes
import glob
import os

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


def dgttrf(lower, diag, upper) -> tuple[np.ndarray, np.ndarray, int]:
    """LU factors of the real tridiagonal band (sub-, main, super-diagonal, n >= 2 rows).

    Returns the factors (dl, d, du, du2 back to back, float64), the int64 pivot
    indices and LAPACK's info; the band is not modified.
    """
    n = len(diag)
    if n < 2 or not len(lower) == len(upper) == n - 1:
        raise ValueError("dgttrf needs a band of n >= 2, n - 1 and n - 1 values")
    if _DGTTRF is None:
        from scipy.linalg.lapack import dgttrf as scipy_dgttrf

        *parts, ipiv, info = scipy_dgttrf(lower, diag, upper)
        return np.concatenate(parts), ipiv.astype(np.int64), int(info)
    factors = np.zeros(4 * n - 4)
    factors[: 3 * n - 2] = np.concatenate((lower, diag, upper))
    ipiv = np.empty(n, dtype=np.int64)
    ints = np.array([n, 0], dtype=np.int64)  # N, INFO
    p, i = factors.ctypes.data, ints.ctypes.data
    _DGTTRF(i, p, p + 8 * (n - 1), p + 8 * (2 * n - 1), p + 8 * (3 * n - 2),
            ipiv.ctypes.data, i + 8)
    return factors, ipiv, int(ints[1])


def dgttrs(factors: np.ndarray, ipiv: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the factored band (dgttrf's factors and pivots) for the real (n, nrhs) rhs.

    Returns the solution, Fortran-ordered (in rhs's memory when rhs is a Fortran-ordered
    float64 array); the factors are not modified.  dgttrs cannot fail on a factored
    band (its info reports only an illegal argument), so info is not returned.
    """
    n = ipiv.size
    if _DGTTRS is None:
        from scipy.linalg.lapack import dgttrs as scipy_dgttrs

        dl, d, du, du2 = np.split(factors, [n - 1, 2 * n - 1, 3 * n - 2])
        return scipy_dgttrs(dl, d, du, du2, ipiv, rhs, overwrite_b=1)[0]
    pointers_ok = all(a.flags.c_contiguous for a in (factors, ipiv)) and (
        factors.dtype, ipiv.dtype, factors.shape) == (np.float64, np.int64, (4 * n - 4,))
    if not pointers_ok or np.iscomplexobj(rhs) or np.ndim(rhs) != 2 or len(rhs) != n:
        raise ValueError("dgttrs needs dgttrf's factors of an n-row band and a real (n, nrhs) rhs")
    b = np.asfortranarray(rhs, dtype=np.float64)
    ints = np.array([n, b.shape[1], 0], dtype=np.int64)  # N (also LDB), NRHS, INFO: per call
    p, i = factors.ctypes.data, ints.ctypes.data
    _DGTTRS(b"N", i, i + 8, p, p + 8 * (n - 1), p + 8 * (2 * n - 1), p + 8 * (3 * n - 2),
            ipiv.ctypes.data, b.ctypes.data, i, i + 16, 1)
    return b
