"""Exception types shared across the library.

The CLI maps these onto exit codes, so user-facing failures should raise
one of the classes below rather than a bare ValueError.
"""


class CatalanLabError(Exception):
    """Base class for every error raised by this library."""


class ValidationError(CatalanLabError, ValueError):
    """Invalid input that is not a parse or arithmetic problem."""


class RangeError(ValidationError):
    """A coordinate fell outside the chain {1, ..., n}."""


class InjectivityError(ValidationError):
    """Two pairs share a domain point or an image point."""


class ChainMismatchError(ValidationError):
    """Operands live on chains of different sizes."""


class ParseError(ValidationError):
    """Malformed element text; carries the offending position."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (position {position})"
        super().__init__(message)
        self.position = position


class FamilySpecError(ValidationError):
    """A family descriptor with an unknown kind or an out-of-range n or p."""


class ContractError(ValidationError):
    """A construction was asked for an element outside its precondition."""


class UnsupportedTableError(ValidationError):
    """The operation needs structure (e.g. J-triviality) the table lacks."""


class CapExceededError(CatalanLabError, RuntimeError):
    """A size cap guarding an expensive computation was exceeded."""


class InvariantError(CatalanLabError, AssertionError):
    """A result broke an invariant the mathematics guarantees, such as a
    table that is not closed under its product: a defect in the program,
    never an answer about the input."""
