"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "PermcloseError",
    "ParseError",
    "DegreeMismatch",
    "BudgetExceeded",
    "UsageError",
    "UnknownGroupName",
    "CatalogValidationError",
]


class PermcloseError(Exception):
    """Base class for every error this package raises deliberately."""


class ParseError(PermcloseError, ValueError):
    """Malformed textual input.

    Carries the position of the offending token when known: a character
    offset for single-line inputs, a line number for file formats.
    """

    def __init__(self, message: str, position: int | None = None, line: int | None = None):
        self.position = position
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        elif position is not None:
            message = f"{message} (at character {position})"
        super().__init__(message)


class DegreeMismatch(PermcloseError, ValueError):
    """Operands are defined on different degrees or overlapping ground sets."""


class BudgetExceeded(PermcloseError, RuntimeError):
    """A search bound would be exceeded; the operation was refused up front."""

    def __init__(self, budget_name: str, needed: int, allowed: int):
        self.budget_name = budget_name
        self.needed = needed
        self.allowed = allowed
        super().__init__(
            f"{budget_name} budget exceeded: would need {_shown(needed)}, "
            f"bound is {_shown(allowed)}"
        )


def _shown(value: int) -> int | str:
    # Python writes no int of more than 4,300 digits in decimal
    return value if int(value).bit_length() < 14_000 else "more than 10^4000"


class UsageError(PermcloseError, ValueError):
    """An argument outside the range an operation is defined for."""


class UnknownGroupName(PermcloseError, LookupError):
    """A requested name is not in the group catalog."""


class CatalogValidationError(PermcloseError):
    """A catalog entry failed its order or primitivity self-check."""
