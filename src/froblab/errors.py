"""Shared exception types, and the digit limit their messages keep to."""

import sys


class RingMismatch(ValueError):
    """Operands live in different rings."""


class ExponentOverflow(OverflowError):
    """An exponent left the checked 32-bit range instead of wrapping."""


class BudgetExceeded(RuntimeError):
    """A configured resource cap was hit; the computation gave up, it did not lie."""


class ParseError(ValueError):
    """Syntax or name error in the text DSL; errors inside a piece of text
    (a polynomial) carry their position in it, statement errors none."""

    def __init__(self, message, line=None, col=None):
        super().__init__(message if line is None else f"{message} (line {line}, column {col})")
        self.message, self.line, self.col = message, line, col


def _int_str_digits() -> int:
    """The most digits str gives of an int: the limit in force (Python 3.10.7 on), or its
    default of 4300 where none is (before 3.10.7, or the limit set to 0)."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return (get and get()) or 4300
