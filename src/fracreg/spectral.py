"""Eigensystem and spectral norms.

Coefficient vectors are plain 1-D float arrays, index 0 holding mode 1 of
the eigenbasis.  Everything here works for any positive nondecreasing
eigenvalue sequence; the concrete problem is the Dirichlet Laplacian on
(0, pi), ``phi_p(y) = sqrt(2/pi) sin(p y)`` with ``lam_p = p**2``.  The
solver and the experiments work in coefficient space only, so no spatial
grid is needed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


class BasisKind(enum.Enum):
    DIRICHLET_LAPLACE_1D = "dirichlet_laplace_1d"
    USER_SUPPLIED = "user_supplied"


@dataclass(frozen=True)
class EigenSystem:
    """Positive nondecreasing spectrum of the spatial operator.

    Use :meth:`dirichlet_laplace_1d` for the concrete interval problem
    (``lam_p = p**2`` exactly) or :meth:`from_eigenvalues` for an abstract
    spectrum, which cannot be extrapolated past its stored values.
    """

    eigenvalues: np.ndarray
    basis_kind: BasisKind

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        if lam.ndim != 1 or lam.size == 0:
            raise DomainError("eigenvalues must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(lam)) or lam[0] <= 0.0:
            raise DomainError("eigenvalues must be finite and positive")
        if np.any(np.diff(lam) < 0.0):
            raise DomainError("eigenvalues must be nondecreasing")
        object.__setattr__(self, "eigenvalues", lam)

    @property
    def count(self) -> int:
        return int(self.eigenvalues.size)

    def lam(self, p: int) -> float:
        """Eigenvalue of mode ``p`` (1-based).

        For the Dirichlet Laplacian the closed form ``p**2`` extends past
        the stored range; user-supplied spectra cannot be extrapolated.
        """
        if p < 1:
            raise DomainError(f"mode index must be >= 1, got {p}")
        if p <= self.count:
            return float(self.eigenvalues[p - 1])
        if self.basis_kind is BasisKind.DIRICHLET_LAPLACE_1D:
            return float(p) ** 2
        raise DomainError(f"mode {p} beyond the {self.count} supplied eigenvalues")

    @classmethod
    def dirichlet_laplace_1d(cls, count: int) -> "EigenSystem":
        if count < 1:
            raise DomainError("count must be >= 1")
        p = np.arange(1, count + 1, dtype=float)
        return cls(p * p, BasisKind.DIRICHLET_LAPLACE_1D)

    @classmethod
    def from_eigenvalues(cls, values) -> "EigenSystem":
        return cls(np.asarray(values, dtype=float), BasisKind.USER_SUPPLIED)


def as_coeffs(values) -> np.ndarray:
    c = np.asarray(values, dtype=float)
    if c.ndim != 1:
        raise DomainError("coefficient vector must be 1-D")
    if c.size and not np.all(np.isfinite(c)):
        raise DomainError("coefficients must be finite")
    return c


def pad(c: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` coefficients of ``c``, zero-padded: unobserved modes are zero.

    Works along the last axis, so the rows of a field pad alike.
    """
    if c.shape[-1] >= n:
        return c[..., :n]
    out = np.zeros(c.shape[:-1] + (n,))
    out[..., : c.shape[-1]] = c
    return out


def hq_norm(coeffs, q: float, eig: EigenSystem) -> float:
    """Spectral Sobolev norm sqrt(sum lam_p^q c_p^2).

    For ``q = 0`` the weights are exactly 1.0, so the result is bit-identical
    to the Parseval norm ``sqrt(sum c_p^2)``.  A norm beyond floating-point
    range raises :class:`DomainError`.
    """
    if q < 0:
        raise DomainError(f"q must be >= 0, got {q}")
    c = as_coeffs(coeffs)
    if c.size > eig.count:
        raise DomainError(
            f"coefficient vector has {c.size} modes but eigensystem only {eig.count}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        w = eig.eigenvalues[: c.size] ** q
        norm = float(np.sqrt(np.sum(w * (c * c))))
    if not math.isfinite(norm):
        raise DomainError(f"the H^q norm with q={q} exceeds floating-point range")
    return norm
