"""Exception hierarchy shared across the package.

Separate classes per failure mode so callers can distinguish bad input
from numerical breakdown without string matching.
"""


class HelmprecError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(HelmprecError):
    """An argument violates a documented precondition."""


class InvalidCoefficientError(InvalidArgumentError):
    """A coefficient field violates its admissibility constraints."""


class DegenerateSystemError(HelmprecError):
    """Assembly produced a system with no free degrees of freedom."""


class NotPositiveDefiniteError(HelmprecError):
    """A matrix required to be symmetric positive definite is not."""


class SingularSystemError(HelmprecError):
    """A matrix required to be invertible is (numerically) singular."""


class NoConvergenceError(HelmprecError):
    """An iterative estimator hit its iteration cap.

    ``estimate`` is the last estimate, as the quantity the raising function
    returns, or None: a capped ARPACK run with k = 1 has none.
    ``iterations`` counts the operator applications.
    """

    def __init__(self, msg, estimate=None, iterations=None):
        super().__init__(msg)
        self.estimate = estimate
        self.iterations = iterations


class InvalidSystemError(HelmprecError):
    """An externally supplied system failed validation."""


class InvalidPairError(InvalidArgumentError):
    """Two systems do not share the dimension/space required for a bound."""


class MatrixExchangeError(HelmprecError):
    """A matrix exchange file is malformed; message carries the line number."""

    def __init__(self, msg, line=None):
        if line is not None:
            msg = f"line {line}: {msg}"
        super().__init__(msg)
        self.line = line


class ConfigError(HelmprecError):
    """An experiment configuration is malformed or incomplete."""
