"""The LAPACK Cholesky pair against scipy's wrappers of the same routines."""

import numpy as np
import pytest
import scipy.linalg

from mdoftwin.linalg import cho_factor, cho_solve


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
