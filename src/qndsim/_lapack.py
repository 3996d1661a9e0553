"""LAPACK zgtsv from the OpenBLAS that numpy's wheel bundles.

numpy >= 2's Linux wheels ship OpenBLAS in `numpy.libs/` (64-bit integers, symbols
`scipy_<name>_64_`) and map it on `import numpy`; calling it through ctypes
costs no further import.  Builds without it (numpy 1.x, macOS, Windows, conda,
distributions) use scipy.linalg's wrapper of the same routine, imported at the
first call; that is why scipy stays a runtime dependency.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np


def _bundled():
    """zgtsv of the bundled OpenBLAS, or None when it is not there."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        lib = ctypes.CDLL(path)  # already mapped by numpy: the same handle
        try:
            zgtsv = lib.scipy_zgtsv_64_
        except AttributeError:
            continue
        zgtsv.argtypes, zgtsv.restype = [ctypes.c_void_p] * 8, None
        return zgtsv
    return None


_ZGTSV = _bundled()


def zgtsv(lower, diag, upper, rhs: np.ndarray) -> tuple[np.ndarray, int]:
    """Solve the tridiagonal system (sub-, main, super-diagonal) for the (n, nrhs) rhs.

    Returns the solution, Fortran-ordered (in rhs's memory when rhs is a Fortran-ordered
    complex128 array), and LAPACK's info; the band is cast to complex and not modified.
    """
    if _ZGTSV is None:
        from scipy.linalg.lapack import zgtsv as scipy_zgtsv

        *_, x, info = scipy_zgtsv(lower, diag, upper, rhs, overwrite_b=1)
        return x, int(info)
    b = np.asfortranarray(rhs, dtype=np.complex128)
    n = b.shape[0]
    if b.ndim != 2 or len(diag) != n or not len(lower) == len(upper) == n - 1:
        raise ValueError("zgtsv needs a band of n, n - 1 and n - 1 values and an (n, nrhs) rhs")
    band = np.concatenate((lower, diag, upper), dtype=np.complex128)  # overwritten: a copy
    ints = np.array([n, b.shape[1], 0], dtype=np.int64)  # N (also LDB), NRHS, INFO: per call
    dl, i = band.ctypes.data, ints.ctypes.data
    _ZGTSV(i, i + 8, dl, dl + 16 * (n - 1), dl + 16 * (2 * n - 1), b.ctypes.data, i, i + 16)
    return b, int(ints[2])
