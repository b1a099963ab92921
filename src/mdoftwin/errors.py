"""Exception types shared across the package."""


class MdofTwinError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(MdofTwinError, ValueError):
    """A configuration or physical parameter violates its contract."""


class NumericError(MdofTwinError, RuntimeError):
    """A numerical operation failed (non-finite state, factorization failure).

    An error about one path of a batched integration, a campaign window or
    an ensemble draw, names its position in ``path`` (None otherwise).
    """

    def __init__(self, message, path=None):
        super().__init__(message)
        self.path = path


class TrainingError(MdofTwinError, RuntimeError):
    """Hyperparameter optimization failed on all restarts."""
