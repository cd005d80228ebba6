"""Exception types shared across the package, and the argument checks."""

import math

import numpy as np

# Python's and numpy's booleans: numpy's is no subclass of Python's.
_BOOLS = (bool, np.bool_)


class InvalidInputError(ValueError):
    """Raised when an argument fails a documented precondition."""


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration or search would exceed its node budget."""

    def __init__(self, message, spent=None, budget=None):
        super().__init__(message)
        self.spent = spent
        self.budget = budget


class NonConvergenceError(RuntimeError):
    """Raised when an iterative numerical routine fails to converge."""


def _require(test, value, message: str):
    """``value`` when it is not a bool (Python's or numpy's) and
    ``test(value)`` holds; otherwise (a failed or unanswerable test) raises
    InvalidInputError(message)."""
    try:
        ok = not isinstance(value, _BOOLS) and bool(test(value))
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise InvalidInputError(message)
    return value


def require_int(value, minimum, message: str) -> int:
    """``value`` as an int: an integer-valued number, at least ``minimum``."""
    return int(_require(lambda v: int(v) == v and v >= minimum, value, message))


def require_fraction(value, message: str) -> float:
    """``value`` as a float: a number in [0, 1); NaN is outside."""
    return float(_require(lambda v: 0.0 <= v < 1.0, value, message))


def require_positive(value, message: str) -> float:
    """``value`` as a float: a positive finite number."""
    return float(_require(lambda v: v > 0.0 and math.isfinite(v), value, message))
