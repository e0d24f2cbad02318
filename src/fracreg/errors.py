"""Exception types shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class NonConvergence(RuntimeError):
    """Power series hit the hard term cap before the tail bound was met.

    Signals that the argument is too large for series mode; the caller
    should be using the large-argument branch instead.
    """

    def __init__(self, message: str, terms: int):
        super().__init__(message)
        self.terms = terms


class NoConvergence(RuntimeError):
    """A mild solve did not reach tolerance.

    Picard iteration carries the successive-difference sequence of its
    sweep budget so callers can inspect how (or whether) the iteration was
    contracting; an exact solve carries its one residual.
    """

    def __init__(self, message: str, iterations: int, diffs):
        super().__init__(message)
        self.iterations = iterations
        self.diffs = list(diffs)
