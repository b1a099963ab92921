"""Cholesky factor and solve for the small SPD matrices of the filter and the GP.

Both call LAPACK ``dpotrf``/``dpotrs`` directly. At the sizes used here (a
6x6 or 21x21 covariance, a Gram matrix of at most a few dozen points) the
numpy and scipy wrappers cost more than the factorization itself. The
results equal scipy's ``cho_factor(a, lower=True)`` (its lower triangle) and
``cho_solve`` bit for bit, since those wrap the same two routines.

Neither function scans its input for non-finite entries, and ``dpotrf``
returns a NaN factor for a NaN matrix without reporting an error. Callers
check finiteness where an input can carry a NaN or an infinity.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs


def cho_factor(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of ``a`` with a zero upper triangle; raises
    LinAlgError if ``a`` is not positive definite."""
    factor, info = dpotrf(a, lower=1, clean=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"leading minor {info} of the matrix is not positive definite")
    if info < 0:
        raise ValueError(f"dpotrf: illegal value in argument {-info}")
    return factor


def cho_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for x given the lower Cholesky factor of A; ``b`` is a
    vector or a matrix of right-hand sides."""
    x, info = dpotrs(factor, b, lower=1)
    if info != 0:
        raise ValueError(f"dpotrs: illegal value in argument {-info}")
    return x
