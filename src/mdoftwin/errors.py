"""Exception types shared across the package."""


class MdofTwinError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(MdofTwinError, ValueError):
    """A configuration or physical parameter violates its contract."""


class NumericError(MdofTwinError, RuntimeError):
    """A numerical operation failed (non-finite state, factorization failure).

    A batched integration names its first failing path in ``path`` (None
    otherwise).
    """

    def __init__(self, message, path=None):
        super().__init__(message)
        self.path = path


class TrainingError(MdofTwinError, RuntimeError):
    """Hyperparameter optimization failed on all restarts.

    Carries the best parameters found so far in ``best_theta`` (may be None).
    """

    def __init__(self, message, best_theta=None):
        super().__init__(message)
        self.best_theta = best_theta
