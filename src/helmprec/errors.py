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


class UnderflowError(HelmprecError):
    """A nonzero quantity underflowed below the normal floats, so it cannot be estimated."""


class NoConvergenceError(HelmprecError):
    """An iterative estimator hit its iteration cap, or ended without an
    estimate: its eigensolver failed, or gave a Ritz value that is 0, not
    finite or beyond the float range. It carries no estimate;
    ``iterations`` counts the operator applications made.
    """

    def __init__(self, msg, iterations=None):
        super().__init__(msg)
        self.iterations = iterations


class InvalidSystemError(HelmprecError):
    """An externally supplied system failed validation."""


class InvalidPairError(InvalidArgumentError):
    """Two systems do not share the dimension/space required for a bound."""


class MatrixExchangeError(HelmprecError):
    """A matrix exchange file is malformed; the message names it, and its line."""

    def __init__(self, msg, path, line=None):
        where = path if line is None else f"{path}: line {line}"
        super().__init__(f"{where}: {msg}")
        self.path = path
        self.line = line


class ConfigError(HelmprecError):
    """An experiment configuration is malformed or incomplete."""
