"""The LAPACK LU against scipy's lu_factor/lu_solve, which wrap the same routines."""

import json
import math
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from conftest import package_env
from mdpgeom import linalg
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


# packages that scipy.linalg's init pulls in and that the package never calls
UNUSED_MODULES = ["scipy.linalg", "scipy.sparse", "scipy._lib._array_api", "numpy.f2py", "numpy.testing"]


def run_fresh(script: str) -> dict:
    """Run ``script`` in a fresh interpreter and return the dict it leaves in ``found``."""
    code = textwrap.dedent(script) + "\nimport json\nprint(json.dumps(found))\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestImports:
    """The package loads scipy's LAPACK extension module alone, not the scipy.linalg package."""

    def test_cli_loads_no_scipy_linalg(self):
        found = run_fresh(
            f"""
            import json, os, sys, tempfile
            import mdpgeom.cli, mdpgeom.linalg

            with tempfile.TemporaryDirectory() as tmp:
                model, spec = os.path.join(tmp, "model.json"), os.path.join(tmp, "spec.json")
                with open(spec, "w") as f:
                    json.dump({{"n": 3, "saps_per_state": 2, "gamma": 0.9, "sparsity": 0.3}}, f)
                codes = [
                    mdpgeom.cli.main(["generate", "--n", "3", "--saps", "2", "--gamma", "1.0", "--seed", "1", "-o", model]),
                    mdpgeom.cli.main(["solve", model]),
                    mdpgeom.cli.main(["sweep", "--spec", spec, "--trials", "2", "--seed", "1", "-o", tmp]),
                ]
            found = {{"codes": codes, "loaded": [m for m in {UNUSED_MODULES!r} if m in sys.modules]}}
            found["registered"] = mdpgeom.linalg.dgetrf is sys.modules["scipy.linalg._flapack"].dgetrf

            import numpy as np
            import scipy.linalg.lapack
            found["same_later"] = scipy.linalg.lapack.dgetrf is mdpgeom.linalg.dgetrf
            lu, piv = scipy.linalg.lu_factor(np.array([[2.0, 1.0], [1.0, 3.0]]))
            found["lu_factor"] = [lu.tolist(), piv.tolist()]
            """
        )
        assert found["codes"] == [0, 0, 0]
        assert found["loaded"] == []
        assert found["registered"]
        assert found["same_later"]
        assert found["lu_factor"] == [[[2.0, 1.0], [0.5, 2.5]], [0, 1]]

    def test_reuses_an_imported_scipy_linalg(self):
        found = run_fresh(
            """
            import scipy.linalg
            flapack = scipy.linalg._flapack
            import mdpgeom.linalg
            found = {
                "same_module": mdpgeom.linalg._lapack is flapack,
                "same_routine": mdpgeom.linalg.dgetrf is scipy.linalg.lapack.dgetrf,
            }
            """
        )
        assert found == {"same_module": True, "same_routine": True}

    def test_missing_extension_names_the_directory(self, monkeypatch, tmp_path):
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
        with pytest.raises(ImportError, match="no LAPACK extension module _flapack in") as caught:
            linalg._load_flapack()
        assert str(caught.value).endswith(os.path.join(str(tmp_path), "linalg"))
