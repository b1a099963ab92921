"""The LAPACK Cholesky pair against scipy's wrappers of the same routines,
the inverse of a Cholesky factor, and the compiled scipy modules loaded
without their packages."""

import numpy as np
import pytest
import scipy.linalg

from conftest import run_fresh
from mdoftwin.linalg import cho_factor, cho_solve, tri_inverse


@pytest.mark.parametrize("n", range(1, 42))
def test_equals_scipy_bit_for_bit(n):
    rng = np.random.default_rng(100 + n)
    root = rng.normal(size=(n, n))
    a = root @ root.T + 1e-3 * np.eye(n)
    b = rng.normal(size=(n, 3))
    c, lower = scipy.linalg.cho_factor(a, lower=True)
    factor = cho_factor(a)
    np.testing.assert_array_equal(factor, np.tril(c))
    np.testing.assert_array_equal(cho_solve(factor, b),
                                  scipy.linalg.cho_solve((c, lower), b))
    np.testing.assert_array_equal(cho_solve(factor, b[:, 0]),
                                  scipy.linalg.cho_solve((c, lower), b[:, 0]))


@pytest.mark.parametrize("a", [
    np.ones((2, 2)),
    np.zeros((3, 3)),
    np.diag([1.0, -1e-9, 2.0]),
    np.array([[1.0, 2.0], [2.0, 1.0]]),
], ids=["singular", "zero", "negative-diagonal", "indefinite"])
def test_not_positive_definite_raises(a):
    with pytest.raises(np.linalg.LinAlgError):
        cho_factor(a)


@pytest.mark.parametrize("n", [1, 2, 7, 25, 41])
def test_tri_inverse_inverts_the_factor(n):
    rng = np.random.default_rng(200 + n)
    root = rng.normal(size=(n, n))
    factor = cho_factor(root @ root.T + 1e-3 * np.eye(n))
    inverse = tri_inverse(factor)
    assert not np.triu(inverse, 1).any()
    np.testing.assert_allclose(inverse, scipy.linalg.solve_triangular(
        factor, np.eye(n), lower=True), rtol=1e-10, atol=1e-12 * np.abs(inverse).max())


def test_tri_inverse_of_singular_factor_raises():
    with pytest.raises(np.linalg.LinAlgError):
        tri_inverse(np.diag([1.0, 0.0, 2.0]))


# ---- the compiled modules, loaded without scipy.linalg / scipy.optimize ----
# Each check runs in a fresh interpreter: conftest has imported scipy.optimize
# into this one.

SAME_ROUTINES = """
import scipy.linalg.lapack, scipy.optimize._lbfgsb
from mdoftwin import gpr, linalg
for name in ("dpotrf", "dpotrs", "dtrtri"):
    assert getattr(linalg, name) is getattr(scipy.linalg.lapack, name), name
assert gpr._lbfgsb.setulb is scipy.optimize._lbfgsb.setulb
assert scipy.linalg._flapack.dpotrf is linalg.dpotrf  # the package attribute is set
"""

SHORT_RUN = """
import numpy as np
from mdoftwin import gpr
from mdoftwin.models import DegradationSchedule, build_duffing_2dof
from mdoftwin.sde import IntegratorConfig
from mdoftwin.twin import CampaignConfig, filter_window, generate_window
system = build_duffing_2dof()
cfg = CampaignConfig(window_duration_s=0.2, integrator=IntegratorConfig(dt=2e-3))
window = generate_window(system, DegradationSchedule.for_system(system), cfg, 0.0, 1)
assert np.isfinite(filter_window(system, cfg, window).means).all()
gpr.train(np.arange(6.0), np.array([1.0, 0.97, 0.95, 0.92, 0.91, 0.87]))
"""


def test_twin_runs_without_the_scipy_packages():
    run_fresh("import sys\nimport mdoftwin\n" + SHORT_RUN + """
loaded = [name for name in ("scipy.linalg", "scipy.optimize") if name in sys.modules]
assert not loaded, loaded
""" + SAME_ROUTINES)


def test_same_routines_when_scipy_is_imported_first():
    run_fresh("""
import scipy.linalg.lapack, scipy.optimize._lbfgsb
import mdoftwin
from mdoftwin import gpr
assert gpr._lbfgsb is scipy.optimize._lbfgsb
""" + SAME_ROUTINES)


@pytest.mark.parametrize("found", ["nothing", "a source file"])
def test_ordinary_import_when_no_extension_file(found):
    # an editable scipy build, say: the package directory holds no
    # extension file for the name, so the helper imports it as usual
    run_fresh(f"""
import importlib.machinery, importlib.util, sys
names = {{"scipy.linalg._flapack", "scipy.optimize._lbfgsb"}}
asked = set()
real = importlib.machinery.PathFinder.find_spec

def find_spec(name, path=None, target=None):
    if name in names and name not in asked:  # the helper's own look-up
        asked.add(name)
        if {found!r} == "nothing":
            return None
        return importlib.util.spec_from_file_location(name, importlib.__file__)
    return real(name, path, target)

importlib.machinery.PathFinder.find_spec = staticmethod(find_spec)
import mdoftwin
assert asked == names, asked
assert "scipy.linalg" in sys.modules and "scipy.optimize" in sys.modules
""" + SAME_ROUTINES)
