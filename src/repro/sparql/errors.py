"""Exception hierarchy for the SPARQL engine."""

from __future__ import annotations

__all__ = [
    "SparqlError",
    "SparqlSyntaxError",
    "SparqlEvalError",
    "ExpressionError",
]


class SparqlError(Exception):
    """Base class for all SPARQL engine errors."""


class SparqlSyntaxError(SparqlError):
    """Raised by the lexer or parser on malformed query text."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class SparqlEvalError(SparqlError):
    """Raised when a structurally valid query cannot be evaluated."""


class ExpressionError(SparqlError):
    """An expression-level error.

    Per the SPARQL semantics, errors in expression evaluation do not abort
    the query: a FILTER treats them as false, and aggregates skip errored
    values.  The operators catch this exception per solution.
    """
