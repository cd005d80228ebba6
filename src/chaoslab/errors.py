"""Exception types shared across the package, and the integer argument check."""


class InvalidInputError(ValueError):
    """Raised when an argument fails a documented precondition."""


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration or search would exceed its node budget."""

    def __init__(self, message, spent=None, budget=None):
        super().__init__(message)
        self.spent = spent
        self.budget = budget


class NonConvergenceError(RuntimeError):
    """Raised when an iterative numerical routine fails to converge.

    Carries the residual reached when the iteration stopped so callers can
    decide whether the partial answer is still usable.
    """

    def __init__(self, message, residual=float("inf")):
        super().__init__(message)
        self.residual = residual


def require_int(value, minimum, message: str) -> int:
    """``value`` as an int; raises InvalidInputError(message) unless it is an
    integer-valued number, not a bool, and at least ``minimum``."""
    try:
        ok = not isinstance(value, bool) and int(value) == value and value >= minimum
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise InvalidInputError(message)
    return int(value)
