"""Eigensystem and spectral norms.

Coefficient vectors are plain 1-D float arrays, index 0 holding mode 1 of
the eigenbasis.  A spectrum is its stored eigenvalues, any positive
nondecreasing sequence, and nothing reads past them: the parameter rule
picks N from eps up front, so a run needs only the first N.  The concrete
problem is the Dirichlet Laplacian on (0, pi),
``phi_p(y) = sqrt(2/pi) sin(p y)`` with ``lam_p = p**2``.  The solver and
the experiments work in coefficient space only, so no spatial grid is
needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_budget


@dataclass(frozen=True)
class EigenSystem:
    """Positive nondecreasing spectrum of the spatial operator, as stored values.

    Build it from any such sequence, or with :meth:`dirichlet_laplace_1d`
    for the concrete interval problem (``lam_p = p**2`` exactly).
    """

    eigenvalues: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        if lam.ndim != 1 or lam.size == 0:
            raise DomainError("eigenvalues must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(lam)) or lam[0] <= 0.0:
            raise DomainError("eigenvalues must be finite and positive")
        if np.any(lam[1:] < lam[:-1]):
            raise DomainError("eigenvalues must be nondecreasing")
        object.__setattr__(self, "eigenvalues", lam)

    @property
    def count(self) -> int:
        return int(self.eigenvalues.size)

    def lam(self, p: int) -> float:
        """Stored eigenvalue of mode ``p`` (1-based); a mode past ``count``
        is a :class:`DomainError` that asks for a larger ``eig_count``."""
        if p < 1:
            raise DomainError(f"mode index must be >= 1, got {p}")
        if p > self.count:
            raise DomainError(
                f"mode {p} is past the {self.count} stored eigenvalues; raise eig_count"
            )
        return float(self.eigenvalues[p - 1])

    @classmethod
    def dirichlet_laplace_1d(cls, count: int) -> "EigenSystem":
        return cls(power_law(count, -2.0))


def as_coeffs(values, rows: bool = False) -> np.ndarray:
    """A finite float coefficient vector; with ``rows``, also a 2-D block of
    them, one per row (one row per Monte-Carlo replicate)."""
    c = np.asarray(values, dtype=float)
    if c.ndim != 1 and not (rows and c.ndim == 2):
        raise DomainError("coefficient vector must be 1-D" + (" or 2-D rows" if rows else ""))
    if c.size and not np.all(np.isfinite(c)):
        raise DomainError("coefficients must be finite")
    return c


def power_law(count: int, decay: float) -> np.ndarray:
    """Coefficients ``p**-decay`` of modes ``p = 1..count``: the manufactured
    truths' profile, and the stored spectra ``p`` and ``p**2``.  More than
    the desk-scale budget of modes, or a coefficient beyond floating-point
    range, is a :class:`DomainError`; the latter names ``decay``."""
    check_budget(count, f"a power law p**{-float(decay):g} of {count} doubles")
    c = np.arange(1, count + 1, dtype=float)
    with np.errstate(over="ignore"):
        c **= -float(decay)
    if not np.all(np.isfinite(c)):
        raise DomainError(
            f"decay {decay!r} puts p**-decay beyond floating-point range at p <= {count}"
        )
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


def hq_norm(coeffs, q: float, eig: EigenSystem):
    """Spectral Sobolev norm sqrt(sum lam_p^q c_p^2), a float for a vector and
    one norm per row for a 2-D block.

    For ``q = 0`` the weights are exactly 1.0, so the result is bit-identical
    to the Parseval norm ``sqrt(sum c_p^2)``.  Each row is summed as its own
    contiguous vector, so a row's norm has the bits of the norm of that row
    alone.  A norm beyond floating-point range raises :class:`DomainError`.
    """
    if not q >= 0:
        raise DomainError(f"q must be >= 0, got {q}")
    c = as_coeffs(coeffs, rows=True)
    if c.shape[-1] > eig.count:
        raise DomainError(
            f"coefficient vector has {c.shape[-1]} modes but eigensystem only {eig.count}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        w = eig.eigenvalues[: c.shape[-1]] ** q
        norm = np.sqrt(np.sum(w * (c * c), axis=-1))
    if not np.all(np.isfinite(norm)):
        raise DomainError(f"the H^q norm with q={q} exceeds floating-point range")
    return float(norm) if c.ndim == 1 else norm
