"""Exception types shared across the package, and the desk-scale memory budget."""

from __future__ import annotations

# Desk-scale limit on one array whose size a run's inputs set: 2^27 doubles, 1 GiB.
BUDGET = 1 << 27


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


def check_budget(doubles: int, what: str) -> None:
    """Refuse ``what``, an array of ``doubles`` doubles, past :data:`BUDGET`:
    a DomainError naming it, raised before the array is made."""
    if doubles > BUDGET:
        raise DomainError(f"{what} exceeds the desk-scale limit of {BUDGET} (1 GiB)")


class NoConvergence(RuntimeError):
    """A mild solve left a residual of its discrete equation above tolerance.

    ``residual`` is that residual, in the discrete C([0,a]; L2) norm.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual
