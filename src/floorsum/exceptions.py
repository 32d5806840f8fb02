"""Exception types, and how an argument is refused: ``_at_least`` is every integer
floor, and ``_shown`` prints a number in a message, so none prints an unbounded int."""

__all__ = [
    "FloorSumError", "DomainError", "DivisibilityError", "InstanceTooLargeError",
    "TableViolationError",
]


class FloorSumError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FloorSumError, ValueError):
    """An argument is outside the range on which an operation is defined."""


class InstanceTooLargeError(FloorSumError, OverflowError):
    """Worst-case intermediate values would not fit in a signed 64-bit word."""


class DivisibilityError(FloorSumError, ValueError):
    """The modulus lacks a divisor required by a predicted extremal site."""

    def __init__(self, m: int, missing: tuple[int, ...]):
        self.m = m
        self.missing = tuple(missing)
        divisors = " and ".join(map(_shown, self.missing))
        super().__init__(f"m={_shown(m)} must be a multiple of {divisors}")


class TableViolationError(FloorSumError):
    """A computed difference disagrees with its proven case table.

    This cannot happen unless the implementation itself is wrong; it is
    raised (rather than silently recorded) so that scans fail loudly.
    """


def _shown(value: int) -> str:
    # Past 256 bits, the bit length: decimal text of a huge int is slow, and
    # refused past 4300 digits.  A float or other non-int prints as itself.
    if not isinstance(value, int) or -(1 << 256) < value < 1 << 256:
        return str(value)
    return f"{'-' if value < 0 else ''}({value.bit_length()} bits)"


def _at_least(name: str, value: int, low: int) -> None:
    """Raise ``DomainError`` unless ``value`` is a plain int (a bool is not) >= ``low``."""
    if type(value) is not int:
        raise DomainError(f"{name} must be an int, got {type(value).__name__}")
    if value < low:
        raise DomainError(f"{name} must be >= {low}, got {_shown(value)}")
