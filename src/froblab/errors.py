"""Shared exception types."""


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
