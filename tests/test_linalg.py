"""The LAPACK LU against scipy's lu_factor/lu_solve, which wrap the same routines."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from mdpgeom.errors import SingularMatrixError
from mdpgeom.linalg import REL_PIVOT_TOL, is_invertible, pivot_magnitudes, solve_checked


def reference(a, b):
    """(pivot magnitudes, singular verdict, x or None) through scipy's convenience route."""
    with warnings.catch_warnings():
        # an exact zero pivot warns here; the verdict below rejects it anyway
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    mags = np.abs(np.diag(lu))
    singular = not mags.min() > REL_PIVOT_TOL * mags.max()
    x = None if singular else scipy.linalg.lu_solve((lu, piv), b, check_finite=False)
    return mags, singular, x


@st.composite
def square_systems(draw):
    """(a, b): well-conditioned, rank-deficient or exactly singular, n from 1 to 40."""
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["conditioned", "rank_deficient", "singular", "small_integers"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "conditioned":
        a = rng.standard_normal((n, n)) + n * np.eye(n)
    elif kind == "rank_deficient":
        k = draw(st.integers(0, n - 1))
        a = rng.standard_normal((n, k)) @ rng.standard_normal((k, n))
    elif kind == "singular":  # a zero row, or two equal rows
        a = rng.standard_normal((n, n))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        a[i] = 0.0 if i == j else a[j]
    else:  # ties in the pivot search and exact cancellation
        a = rng.integers(-1, 2, size=(n, n)).astype(np.float64)
    return a, rng.standard_normal(n)


class TestAgainstScipy:
    @given(square_systems())
    def test_bitwise_equal(self, system):
        a, b = system
        mags, singular, x = reference(a, b)
        got = pivot_magnitudes(a)
        assert got.tobytes() == mags.tobytes()
        assert is_invertible(a) is (not singular)
        if singular:
            with pytest.raises(SingularMatrixError, match="below relative threshold"):
                solve_checked(a, b)
        else:
            assert solve_checked(a, b).tobytes() == x.tobytes()


class TestEdgeCases:
    @pytest.mark.parametrize(
        "a", [np.full((2, 2), math.nan), np.array([[1.0, math.nan], [0.0, 1.0]])], ids=["all", "one"]
    )
    def test_nan_matrix_is_singular(self, a):
        assert not is_invertible(a)
        with pytest.raises(SingularMatrixError):
            solve_checked(a, np.ones(2))

    def test_empty_matrix_raises_before_lapack(self, capfd):
        for call in (
            lambda: solve_checked(np.zeros((0, 0)), np.zeros(0)),
            lambda: is_invertible(np.zeros((0, 0))),
            lambda: pivot_magnitudes(np.zeros((0, 0))),
        ):
            with pytest.raises(ValueError, match="non-empty square"):
                call()
        assert capfd.readouterr() == ("", "")
