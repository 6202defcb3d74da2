"""Dense pivoted factorization with explicit singularity detection.

All linear systems in this package are small and dense (the all-ones matrix
makes them dense anyway), so each goes through one partial-pivoting LU,
LAPACK getrf/getrs on float64. A matrix is singular unless its smallest pivot
magnitude exceeds REL_PIVOT_TOL times the largest, which zero and NaN pivots
fail; relative, because entries of size O(n) make absolute cutoffs misfire.

getrf and getrs come from scipy's LAPACK extension module, scipy.linalg._flapack,
loaded without running scipy.linalg's package init, whose array-API layer
imports numpy.f2py, numpy.testing and more that this package never calls.
"""

from __future__ import annotations

import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec

import numpy as np
import scipy  # scipy's own init only; on Windows it puts its bundled OpenBLAS on the DLL path

from .errors import SingularMatrixError

REL_PIVOT_TOL = 1e-10
_FLAPACK = "scipy.linalg._flapack"


def _load_flapack():
    """scipy.linalg._flapack: the module already imported, else loaded from scipy/linalg and registered.

    Registered under its own name, so a later ``import scipy.linalg`` uses the
    same module object and the same wrappers.
    """
    if _FLAPACK in sys.modules:
        return sys.modules[_FLAPACK]
    directory = os.path.join(scipy.__path__[0], "linalg")
    spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(_FLAPACK)
    if spec is None:
        raise ImportError(f"no LAPACK extension module _flapack in {directory}", name=_FLAPACK)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_FLAPACK] = module
    return module


_lapack = _load_flapack()
dgetrf, dgetrs = _lapack.dgetrf, _lapack.dgetrs


def _getrf(a) -> tuple:
    """(lu, piv, |diag(U)|) of a square matrix; getrf prints, not raises, on an empty one."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {a.shape}")
    lu, piv, _ = dgetrf(a)
    return lu, piv, np.abs(lu.diagonal())


def _singular(mags: np.ndarray) -> bool:
    # written so that NaN, which compares false, counts as singular
    return not mags.min() > REL_PIVOT_TOL * mags.max()


def pivot_magnitudes(a: np.ndarray) -> np.ndarray:
    """Absolute values of the U diagonal from a partial-pivoting LU."""
    return _getrf(a)[2]


def is_invertible(a: np.ndarray) -> bool:
    return not _singular(pivot_magnitudes(a))


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b with no pivot test, for systems nonsingular by construction."""
    lu, piv, _ = _getrf(a)
    return dgetrs(lu, piv, np.asarray(b, dtype=np.float64))[0]


def solve_checked(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b, raising SingularMatrixError at the pivot threshold."""
    lu, piv, mags = _getrf(a)
    if _singular(mags):
        raise SingularMatrixError(
            f"pivot ratio {mags.min():.3e} / {mags.max():.3e} below relative threshold {REL_PIVOT_TOL:g}"
        )
    return dgetrs(lu, piv, np.asarray(b, dtype=np.float64))[0]
