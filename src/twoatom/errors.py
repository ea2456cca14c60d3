"""Exception types shared across the package."""


class TwoAtomError(Exception):
    """Base class for all package errors."""


class ValidationError(TwoAtomError, ValueError):
    """A physical object violates one of its invariants."""


class DomainError(TwoAtomError, ValueError):
    """An operation was called outside its mathematical domain."""


class ConfigError(TwoAtomError, ValueError):
    """A scenario configuration could not be parsed or validated."""


class SteadyStateError(TwoAtomError, RuntimeError):
    """No steady state could be found within tolerance."""


class TrajectoryBudgetError(TwoAtomError, RuntimeError):
    """A trajectory exceeded its jump budget; carries partial results."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class UndefinedValueError(TwoAtomError, ArithmeticError):
    """A normalized observable is undefined (zero denominator)."""
