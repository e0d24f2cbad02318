"""Exception types shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class NoConvergence(RuntimeError):
    """A mild solve left a residual of its discrete equation above tolerance.

    ``residual`` is that residual, in the discrete C([0,a]; L2) norm.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual
