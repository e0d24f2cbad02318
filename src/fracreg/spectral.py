"""Eigensystem, sine-basis transforms on (0, pi), and spectral norms.

Coefficient vectors are plain 1-D float arrays, index 0 holding mode 1.
Norms and the regularizer work for any eigenvalue sequence; ``project`` and
``synthesize`` are tied to the one concrete basis the problem uses,
``phi_p(y) = sqrt(2/pi) sin(p y)`` on (0, pi) with ``lam_p = p**2``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResolutionError

#: Minimum grid points per mode for a trustworthy projection.
POINTS_PER_MODE = 16


class BasisKind(enum.Enum):
    DIRICHLET_LAPLACE_1D = "dirichlet_laplace_1d"
    USER_SUPPLIED = "user_supplied"


@dataclass(frozen=True)
class EigenSystem:
    """Positive nondecreasing spectrum of the spatial operator.

    Use :meth:`dirichlet_laplace_1d` for the concrete interval problem
    (``lam_p = p**2`` exactly) or :meth:`from_eigenvalues` for an abstract
    spectrum on which only coefficient-space operations are available.
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


@dataclass(frozen=True)
class SpatialGrid:
    """Quadrature rule on [0, pi]: strictly increasing points and positive weights."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        if pts.ndim != 1 or pts.shape != wts.shape:
            raise DomainError("points and weights must be matching 1-D arrays")
        if np.any(np.diff(pts) <= 0.0):
            raise DomainError("grid points must be strictly increasing")
        if pts[0] < 0.0 or pts[-1] > math.pi:
            raise DomainError("grid points must lie in [0, pi]")
        if np.any(wts <= 0.0):
            raise DomainError("weights must be positive")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    @property
    def size(self) -> int:
        return int(self.points.size)

    @classmethod
    def simpson(cls, n_points: int = 1025) -> "SpatialGrid":
        """Composite Simpson rule spanning [0, pi]; ``n_points`` odd >= 3.

        Weight sum equals pi to rounding.  For uniform grids the rule is a
        combination of two trapezoid rules, hence exact for the sine-product
        integrands below the Nyquist frequency.
        """
        if n_points < 3 or n_points % 2 == 0:
            raise DomainError("composite Simpson needs an odd point count >= 3")
        h = math.pi / (n_points - 1)
        pts = np.linspace(0.0, math.pi, n_points)
        w = np.full(n_points, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        w *= h / 3.0
        if not abs(float(w.sum()) - math.pi) < 1e-12:
            raise DomainError(f"Simpson weights of {n_points} points do not sum to pi")
        return cls(pts, w)


def as_coeffs(values) -> np.ndarray:
    c = np.asarray(values, dtype=float)
    if c.ndim != 1:
        raise DomainError("coefficient vector must be 1-D")
    if c.size and not np.all(np.isfinite(c)):
        raise DomainError("coefficients must be finite")
    return c


def basis_eval(p: int, y):
    """phi_p(y) = sqrt(2/pi) sin(p y); accepts scalar or array y in [0, pi]."""
    if p < 1:
        raise DomainError(f"mode index must be >= 1, got {p}")
    arr = np.asarray(y, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > math.pi):
        raise DomainError("evaluation points must lie in [0, pi]")
    out = math.sqrt(2.0 / math.pi) * np.sin(p * arr)
    return float(out) if np.isscalar(y) or arr.ndim == 0 else out


def project(samples, grid: SpatialGrid, P: int) -> np.ndarray:
    """Coefficients <f, phi_p>, p = 1..P, by grid quadrature.

    Requires at least ``POINTS_PER_MODE * P + 1`` grid points so the highest
    mode is well resolved; anything less raises :class:`ResolutionError`.
    """
    f = np.asarray(samples, dtype=float)
    if f.shape != grid.points.shape:
        raise DomainError("sample array must match the grid")
    if P < 1:
        raise DomainError("P must be >= 1")
    if grid.size < POINTS_PER_MODE * P + 1:
        raise ResolutionError(
            f"grid with {grid.size} points under-resolves mode {P}; "
            f"need at least {POINTS_PER_MODE * P + 1}"
        )
    p = np.arange(1, P + 1)
    # (P, n) sine table; quadrature applied along the grid axis
    table = np.sin(np.outer(p, grid.points)) * math.sqrt(2.0 / math.pi)
    return table @ (grid.weights * f)


def synthesize(coeffs, grid: SpatialGrid) -> np.ndarray:
    """Pointwise sum of c_p phi_p over the grid."""
    c = as_coeffs(coeffs)
    if c.size == 0:
        return np.zeros(grid.size)
    p = np.arange(1, c.size + 1)
    table = np.sin(np.outer(p, grid.points)) * math.sqrt(2.0 / math.pi)
    return c @ table


def l2_norm(coeffs) -> float:
    """Parseval norm sqrt(sum c_p^2)."""
    c = as_coeffs(coeffs)
    return float(np.sqrt(np.sum(c * c)))


def hq_norm(coeffs, q: float, eig: EigenSystem) -> float:
    """Spectral Sobolev norm sqrt(sum lam_p^q c_p^2).

    For ``q = 0`` the weights are exactly 1.0, so the accumulation path is
    bit-identical to :func:`l2_norm`.  A norm beyond floating-point range
    raises :class:`DomainError`.
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
