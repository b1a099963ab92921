"""Cholesky factor, solve and factor inverse for the small SPD matrices of
the filter and the GP.

They call LAPACK ``dpotrf``/``dpotrs``/``dtrtri`` directly. At the sizes
used here (a 6x6 or 21x21 covariance, a Gram matrix of at most a few dozen
points) the numpy and scipy wrappers cost more than the factorization
itself. The results equal scipy's ``cho_factor(a, lower=True)`` (its lower triangle) and
``cho_solve`` bit for bit, since those wrap the same two routines.

No function scans its input for non-finite entries, and ``dpotrf``
returns a NaN factor for a NaN matrix without reporting an error. Callers
check finiteness where an input can carry a NaN or an infinity, with
``all_finite``.

The three routines, and ``setulb`` for ``gpr.py``, come from scipy's
compiled modules loaded by ``scipy_extension``, which skips the package
``__init__``s of ``scipy.linalg`` and ``scipy.optimize``. Those import
scipy.sparse, special, spatial, fft and numpy.testing, which the twin
never uses.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import math
import os
import sys
from types import ModuleType

import numpy as np
import scipy


def scipy_extension(package: str, name: str) -> ModuleType:
    """scipy's compiled module ``scipy.<package>.<name>``, loaded from its
    file in scipy's package directory without running ``scipy.<package>``'s
    ``__init__``.

    It is the extension module an ordinary import gives: CPython keeps one
    copy per file, so a later ``import scipy.<package>.<name>`` returns a
    module holding the very same routines. The module is left out of
    ``sys.modules``, so that later import also sets it as an attribute of
    its package. A module already imported, or one that is not a plain
    extension file in the package directory (an editable build, say), comes
    from the ordinary import.
    """
    full = f"scipy.{package}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.machinery.PathFinder.find_spec(
        full, [os.path.join(scipy.__path__[0], package)])
    if spec is None or not isinstance(spec.loader, importlib.machinery.ExtensionFileLoader):
        return importlib.import_module(full)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(full, None)  # registered by CPython without its package
    return module


_flapack = scipy_extension("linalg", "_flapack")
dpotrf, dpotrs, dtrtri = _flapack.dpotrf, _flapack.dpotrs, _flapack.dtrtri


def all_finite(x: np.ndarray) -> bool:
    """Whether every entry of x is finite. The sum of squares is finite when
    they are, and BLAS forms it faster than numpy reduces ``isfinite``; the
    exact test runs only when it is not, since entries above ~1e154 overflow
    it."""
    return math.isfinite(np.vdot(x, x)) or bool(np.isfinite(x).all())


def cho_factor(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of ``a`` with a zero upper triangle; raises
    LinAlgError if ``a`` is not positive definite."""
    factor, info = dpotrf(a, 1, 1)  # lower, clean
    if info > 0:
        raise np.linalg.LinAlgError(
            f"leading minor {info} of the matrix is not positive definite")
    if info < 0:
        raise ValueError(f"dpotrf: illegal value in argument {-info}")
    return factor


def cho_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for x given the lower Cholesky factor of A; ``b`` is a
    vector or a matrix of right-hand sides."""
    x, info = dpotrs(factor, b, 1)  # lower
    if info != 0:
        raise ValueError(f"dpotrs: illegal value in argument {-info}")
    return x


def tri_inverse(factor: np.ndarray) -> np.ndarray:
    """Inverse of a lower triangular factor whose upper triangle is zero, as
    ``cho_factor`` returns it; the inverse's upper triangle is zero too.
    Raises LinAlgError if a diagonal entry is zero."""
    inverse, info = dtrtri(factor, lower=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"diagonal entry {info} of the factor is zero")
    if info < 0:
        raise ValueError(f"dtrtri: illegal value in argument {-info}")
    return inverse
