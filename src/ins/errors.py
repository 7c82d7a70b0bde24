"""Exception types shared across the package."""

from __future__ import annotations


class InsError(Exception):
    """Base class for every error raised by this package."""


class InvalidInterval(InsError, ValueError):
    """Membership interval endpoints are out of range or out of order."""


class UniverseMismatch(InsError, ValueError):
    """Binary set operation applied to sets over different universes."""


class NonPositiveScalar(InsError, ValueError):
    """Scalar multiplication/division requires a finite factor > 0."""


class DimensionMismatch(InsError, ValueError):
    """Functional sets combined over different Euclidean dimensions."""


class InvalidDomain(InsError, ValueError):
    """Sampling box is malformed or incompatible with the set."""


class InvalidParameter(InsError, ValueError):
    """A run parameter (trials, seed, tolerance, grid size) is out of range."""


class UnknownLaw(InsError, LookupError):
    """No registered algebraic law under the requested name."""


class UnknownFamily(InsError, LookupError):
    """No built-in membership family under the requested name."""


# Diagnostic categories a SourceError may carry.
LEX_ERROR = "LexError"
PARSE_ERROR = "ParseError"
UNKNOWN_IDENTIFIER = "UnknownIdentifier"
TYPE_MISMATCH = "TypeMismatch"
UNIVERSE_MISMATCH = "UniverseMismatch"
NON_POSITIVE_SCALAR = "NonPositiveScalar"

SOURCE_ERROR_KINDS = frozenset(
    {
        LEX_ERROR,
        PARSE_ERROR,
        UNKNOWN_IDENTIFIER,
        TYPE_MISMATCH,
        UNIVERSE_MISMATCH,
        NON_POSITIVE_SCALAR,
    }
)


class SourceError(InsError):
    """Lexing, parsing, or evaluation error tied to a position in source text.

    ``line`` and ``column`` are 1-based and point at the offending token.
    """

    def __init__(self, kind: str, line: int, column: int, message: str) -> None:
        if kind not in SOURCE_ERROR_KINDS:
            raise ValueError(f"unknown SourceError kind: {kind!r}")
        self.kind = kind
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"{kind} at line {line}, column {column}: {message}")
