"""Dense pivoted factorization with explicit singularity detection.

All linear systems in this package are small and dense (the all-ones matrix
makes them dense anyway), so everything goes through one LU factorization
with a relative pivot threshold: the matrix is declared singular when the
smallest pivot magnitude is at most REL_PIVOT_TOL times the largest one.
A relative threshold is used because the matrices involved have entries of
size O(n), which makes absolute cutoffs misfire as n grows.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg

from .errors import SingularMatrixError

REL_PIVOT_TOL = 1e-10


def _lu_factor(a: np.ndarray):
    # exact singularity is an expected outcome here, not a user-facing warning
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        return scipy.linalg.lu_factor(a, check_finite=False)


def pivot_magnitudes(a: np.ndarray) -> np.ndarray:
    """Absolute values of the U diagonal from a partial-pivoting LU."""
    lu, _ = _lu_factor(np.asarray(a, dtype=np.float64))
    return np.abs(np.diag(lu))


def is_invertible(a: np.ndarray) -> bool:
    piv = pivot_magnitudes(a)
    return bool(piv.min() > REL_PIVOT_TOL * piv.max())


def solve_checked(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b, raising SingularMatrixError at the pivot threshold."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    lu, piv = _lu_factor(a)
    mags = np.abs(np.diag(lu))
    if mags.min() <= REL_PIVOT_TOL * mags.max():
        raise SingularMatrixError(
            f"pivot ratio {mags.min():.3e} / {mags.max():.3e} below relative threshold {REL_PIVOT_TOL:g}"
        )
    return scipy.linalg.lu_solve((lu, piv), b, check_finite=False)
