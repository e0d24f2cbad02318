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
    """A mild solve left a residual of its discrete equation above tolerance.

    ``residual`` is that residual, in the discrete C([0,a]; L2) norm.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual
