"""Forward solver: the mild solution of the truncated-mode semilinear problem.

Each retained mode p carries the representation

    u_p(t) = E(beta,1; lam_p t^beta) u0_p  +  t E(beta,2; lam_p t^beta) u1_p
             + int_0^t (t-eta)^(beta-1) E(beta,beta; lam_p (t-eta)^beta) g_p(eta) deta

with ``g_p(eta) = <G(eta, ., u(eta, .)), phi_p>``.  The Volterra term is
discretized by piecewise-linear product integration: the forcing is linear
on each time cell while the kernel is integrated exactly through its first
and second antiderivatives, so the quadrature error is O(dt^2) and comes
from the interpolation of ``g`` alone.  The kernel is a function of
``t - eta`` and the grid is uniform, so each mode's weight matrix ``L_p``
is Toeplitz beyond its first column; it is kept as two (P, M+1) arrays of
generating weights, never as a dense matrix.

Every source is a mode-diagonal map: mode p is multiplied by a known
factor ``m_p(t)``, so each mode's discrete equation is the lower-triangular
system ``(I - L_p diag(m_p)) U_p = H_p``.  It is solved exactly once per
problem shape by forward substitution for unit ``u0`` and ``u1``, one
length-i dot per row, and every solve combines the two cached responses
linearly.  Each solve checks the residual of the discrete equation at the
field it returns and raises :class:`NoConvergence` when it exceeds the
tolerance.

Everything here is pure and deterministic; per-mode work is independent (the
reduction orders are fixed), so results do not depend on any parallel
schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, NoConvergence
from .mittag_leffler import kernel_double_primitive, kernel_primitive, ml_values
from .spectral import EigenSystem, as_coeffs, pad

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class NonlinearitySpec:
    """Descriptor of the source nonlinearity G, a mode-diagonal map.

    ``damped``     the damped map of the rate experiments: mode-wise
                   multiplier ``K / (1 + lam_p)``, Lipschitz constant ``K``.
                   :meth:`zero`, no forcing, is ``damped`` with ``K = 0``.
    ``gbar``       the contraction nonlinearity of the instability
                   construction: mode-wise multiplier
                   ``exp(lam_p^(1/beta) (t - a)) / (2 a C3)``.

    ``K`` must be finite and >= 0, and ``C3`` of ``gbar`` finite and > 0.
    """

    kind: str
    K: float = 0.0
    C3: float = math.nan

    def __post_init__(self):
        if self.kind not in ("damped", "gbar"):
            raise DomainError(f"unknown nonlinearity kind {self.kind!r}")
        if not 0.0 <= self.K < math.inf:
            raise DomainError(f"Lipschitz constant must be finite and >= 0, got {self.K}")
        if self.kind == "gbar" and not 0.0 < self.C3 < math.inf:
            raise DomainError(f"gbar needs a finite positive C3, got {self.C3}")

    @classmethod
    def zero(cls) -> "NonlinearitySpec":
        """No forcing: the linear, mode-decoupled problem."""
        return cls.damped(0.0)

    @classmethod
    def damped(cls, K: float) -> "NonlinearitySpec":
        return cls(kind="damped", K=K)

    @classmethod
    def gbar(cls, C3: float) -> "NonlinearitySpec":
        return cls(kind="gbar", C3=C3)

    @property
    def diagonal_param(self) -> float:
        """The parameter of the kind: ``K`` of ``damped``, ``C3`` of ``gbar``."""
        return self.K if self.kind == "damped" else self.C3


@dataclass(frozen=True)
class ProblemSpec:
    """The fixed mathematical setting: order, horizon, spectrum, forcing."""

    beta: float
    a: float
    eig: EigenSystem
    nonlinearity: NonlinearitySpec

    def __post_init__(self):
        if not (1.0 < self.beta < 2.0):
            raise DomainError(f"beta must lie strictly in (1, 2), got {self.beta}")
        if not 0.0 < self.a < math.inf:
            raise DomainError(f"horizon a must be finite and positive, got {self.a}")


@dataclass(frozen=True)
class InitialData:
    """Coefficient vectors of the initial value and initial velocity.

    Each may also be an (R, P) block holding one field's data per row; the
    R fields are solved at once.
    """

    u0: np.ndarray
    u1: np.ndarray

    def __post_init__(self):
        u0 = as_coeffs(self.u0, rows=True)
        u1 = as_coeffs(self.u1, rows=True)
        if u0.shape != u1.shape:
            raise DomainError("u0 and u1 must have equal shape")
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "u1", u1)


@dataclass(frozen=True)
class FourierField:
    """Solution values on a uniform time grid: row i holds u(t_i) coefficients.

    ``coeffs`` is (M+1, P), or (R, M+1, P) for a batch of R fields solved
    from (R, P) data.  ``picard_diffs`` holds the residual of the discrete
    equation at the field, shape (1,), or (R, 1) with one row per field of
    a batch.
    """

    t_grid: np.ndarray
    coeffs: np.ndarray
    picard_diffs: np.ndarray | None = None

    def __post_init__(self):
        t = np.asarray(self.t_grid, dtype=float)
        c = np.asarray(self.coeffs, dtype=float)
        if t.ndim != 1 or c.ndim not in (2, 3) or c.shape[-2] != t.size:
            raise DomainError("coeffs must be (len(t_grid), P) or (R, len(t_grid), P)")
        if not np.all(np.isfinite(c)):
            raise DomainError("field coefficients must be finite")
        steps = np.diff(t)
        if t.size > 1 and (np.any(steps <= 0) or np.ptp(steps) > 1e-12 * t[-1]):
            raise DomainError("t_grid must be uniform and increasing")
        object.__setattr__(self, "t_grid", t)
        object.__setattr__(self, "coeffs", c)


# ---------------------------------------------------------------------------
# Kernel tables
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _solver_tables(beta: float, a: float, lams: tuple, M: int):
    """Homogeneous-mode tables and Toeplitz Volterra weights on the M-grid.

    Returns ``(E1, E2t, C, W0)``.  ``E1`` and ``E2t`` are (M+1, P) tables of
    ``E(beta,1; lam t^beta)`` and ``t E(beta,2; lam t^beta)``.  ``C`` and
    ``W0`` are (P, M+1) generating weights of the lower-triangular
    product-integration matrices ``L_p``, for which ``(L_p @ g_p)[i]``
    integrates the kernel against the piecewise linear interpolant of
    ``g_p`` over [0, t_i]:

        L_p[i, j] = C[p, i-j]   for 1 <= j <= i,
        L_p[i, 0] = W0[p, i]    (W0[p, 0] = 0),

    and zero above the diagonal.  Storage is O(P M).  Cached so Monte-Carlo
    replicates over the same problem pay for the Mittag-Leffler sweep once.
    """
    lam = np.asarray(lams, dtype=float)
    t = np.linspace(0.0, a, M + 1)
    dt = a / M
    z = lam[:, None] * t[None, :] ** beta  # (P, M+1)

    e1, _ = ml_values(beta, 1.0, z)
    e2, _ = ml_values(beta, 2.0, z)
    E1 = e1.T.copy()
    E2t = (t[None, :] * e2).T.copy()

    # Exact kernel antiderivatives at the lag points s = l*dt, (P, M+1) each.
    K1 = kernel_primitive(beta, lam[:, None], t[None, :])
    K2 = kernel_double_primitive(beta, lam[:, None], t[None, :])

    # Per-cell weights in lag form: a cell at lags (l-1, l) contributes to its
    # left node with weight WL[l] and to its right node with WR[l-1].  A node
    # j >= 1 is the left node of one cell and the right node of the next, so
    # its weight at lag l is C[l] = WL[l] + WR[l] (WL[0] = 0); node 0 is only
    # a left node.
    s_all = np.arange(M + 1, dtype=float) * dt
    WL = np.zeros_like(K1)
    WR = np.zeros_like(K1)
    dK1 = K1[:, 1:] - K1[:, :-1]  # lag l-1 -> l, index l-1
    T = (
        s_all[None, 1:] * K1[:, 1:]
        - s_all[None, :-1] * K1[:, :-1]
        - (K2[:, 1:] - K2[:, :-1])
    )
    WL[:, 1:] = (-s_all[None, :-1] * dK1 + T) / dt
    WR[:, :-1] = (s_all[None, 1:] * dK1 - T) / dt
    return E1, E2t, WL + WR, WL


def _volterra_product(C: np.ndarray, W0: np.ndarray, G: np.ndarray) -> np.ndarray:
    """(M+1, P) array of ``(L_p @ G[:, p])[i]``, the quadrature of every row.

    The Toeplitz part is a direct convolution per mode.  The weights span
    many decades at large ``lam t^beta``, where FFT rounding would swamp the
    small early rows.
    """
    M = G.shape[0] - 1
    V = W0.T * G[0]
    for p in range(G.shape[1]):
        V[1:, p] += np.convolve(C[p], G[1:, p])[:M]
    return V


def _multiplier(kind: str, param: float, beta: float, a: float, lam: np.ndarray, t: np.ndarray):
    """(len(t), P) mode-wise multiplier ``m_p(t_i)`` of a mode-diagonal kind."""
    if kind == "damped":
        return np.broadcast_to(param / (1.0 + lam), (t.size, lam.size))
    return np.exp(lam[None, :] ** (1.0 / beta) * (t[:, None] - a)) / (2.0 * a * param)


def _max_row_l2(X: np.ndarray) -> float:
    """Discrete C([0,a]; L2) norm: the max over grid rows of the row L2 norm."""
    return float(np.max(np.sqrt(np.sum(X**2, axis=1))))


@lru_cache(maxsize=32)
def _response_tables(beta: float, a: float, lams: tuple, M: int, kind: str, param: float):
    """Exact responses of the discrete mild equation to unit initial data.

    For a mode-diagonal nonlinearity ``G_p(t, u) = m_p(t) u_p`` the discrete
    equation of mode p is the lower-triangular system
    ``(I - L_p diag(m_p)) U_p = H_p`` with ``H_p = E1[:, p] u0_p + E2t[:, p] u1_p``.
    Forward substitution, row by row and vectorised over modes and both
    right-hand sides, returns ``(F1, F2)``, each (M+1, P), such that
    ``U = F1 * u0 + F2 * u1`` solves the system for any data.  Cached so
    Monte-Carlo replicates over the same problem pay for it once.
    """
    E1, E2t, C, W0 = _solver_tables(beta, a, lams, M)
    lam = np.asarray(lams, dtype=float)
    m = _multiplier(kind, param, beta, a, lam, np.linspace(0.0, a, M + 1))
    H = np.stack([E1.T, E2t.T], axis=1)  # (P, 2, M+1)
    F = np.empty_like(H)
    mF = np.empty_like(H)  # forcing of the responses, m * F
    F[:, :, 0] = H[:, :, 0]
    mF[:, :, 0] = m[0][:, None] * F[:, :, 0]
    # Row i of L_p left of its diagonal C[p, 0] is [W0[p, i], C[p, i-1], ..., C[p, 1]]:
    # row[:, M-i:M] while row[:, M-i] holds W0[:, i], since row[:, M-l] = C[:, l].
    row = C[:, ::-1].copy()
    for i in range(1, M + 1):
        row[:, M - i] = W0[:, i]
        rhs = H[:, :, i] + (mF[:, :, :i] @ row[:, M - i : M, None])[:, :, 0]
        row[:, M - i] = C[:, i]
        F[:, :, i] = rhs / (1.0 - C[:, 0] * m[i])[:, None]
        mF[:, :, i] = m[i][:, None] * F[:, :, i]
    return F[:, 0].T.copy(), F[:, 1].T.copy()


def _picard_solve(
    spec: ProblemSpec,
    lam: np.ndarray,
    u0: np.ndarray,
    u1: np.ndarray,
    M: int,
    tol: float,
) -> FourierField:
    """Exact solution of the discrete mild equation: the one entry of every solve.

    Combines the cached exact responses, for (P,) data or for every row of
    (R, P) data at once, and records each field's residual of the discrete
    equation as its single ``picard_diffs`` entry.
    """
    lams = tuple(lam.tolist())
    E1, E2t, C, W0 = _solver_tables(spec.beta, spec.a, lams, M)
    t = np.linspace(0.0, spec.a, M + 1)
    nl = spec.nonlinearity
    F1, F2 = _response_tables(spec.beta, spec.a, lams, M, nl.kind, nl.diagonal_param)
    m = _multiplier(nl.kind, nl.diagonal_param, spec.beta, spec.a, lam, t)
    rows0, rows1 = u0.reshape(-1, lam.size), u1.reshape(-1, lam.size)
    U = np.empty((rows0.shape[0],) + F1.shape)
    residuals = np.empty((rows0.shape[0], 1))
    # One field at a time, so no temporary is larger than one field.
    for r, (Ur, c0, c1) in enumerate(zip(U, rows0, rows1)):
        np.multiply(F1, c0, out=Ur)
        Ur += F2 * c1
        H = E1 * c0 + E2t * c1
        residual = _max_row_l2(H + _volterra_product(C, W0, m * Ur) - Ur)
        # The residual of an exact solve is rounding, which grows with the
        # field: tol is absolute up to a field norm of 1 and relative beyond.
        bound = tol * max(1.0, _max_row_l2(Ur))
        if not residual <= bound:
            raise NoConvergence(
                f"exact {nl.kind} solve of field {r} left a residual "
                f"{residual:.3e} above {bound:.3e}",
                residual,
            )
        residuals[r] = residual
    if u0.ndim == 1:
        U, residuals = U[0], residuals[0]
    return FourierField(t, U, picard_diffs=residuals)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def volterra_step(spec: ProblemSpec, p: int, g_history, t_i: float) -> float:
    """Product-quadrature value of the mode-p Volterra integral over [0, t_i].

    ``g_history`` holds the forcing coefficient on the uniform grid
    0 = t_0 < ... < t_n = t_i; it is interpolated linearly on each cell and
    the kernel moments are integrated exactly.
    """
    g = np.asarray(g_history, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise DomainError("g_history must be a nonempty 1-D array")
    if t_i < 0:
        raise DomainError("t_i must be >= 0")
    n = g.size - 1
    if n == 0 or t_i == 0.0:
        return 0.0
    lam = spec.eig.lam(p)
    _, _, C, W0 = _solver_tables(spec.beta, t_i, (lam,), n)
    # row n of L: [W0[n], C[n-1], ..., C[0]]
    return float(np.concatenate((W0[0, n:], C[0, n - 1 :: -1])) @ g)


def solve_mild(
    spec: ProblemSpec,
    data: InitialData,
    P: int,
    M: int,
    tol: float = DEFAULT_TOL,
) -> FourierField:
    """Fixed point of the coefficient-space mild-solution map.

    The discrete equation is solved exactly, and the field carries its
    residual, measured in the discrete C([0,a]; L2) norm (the max over grid
    rows of the row L2 norm), as its one ``picard_diffs`` entry.  Raises
    :class:`NoConvergence` with that residual if it exceeds ``tol`` (times
    the field norm, where that exceeds 1).

    Data holding (R, P) blocks gives an (R, M+1, P) field, row r solved from
    data row r.

    The un-truncated problem is ill-posed; this is the desk-scale forward
    map on finitely many modes, not a well-posedness claim.
    """
    if P < 1 or P > spec.eig.count:
        raise DomainError(f"P must be in 1..{spec.eig.count}, got {P}")
    if M < 1:
        raise DomainError("M must be >= 1")
    if not tol > 0:
        raise DomainError("tol must be positive")
    lam = spec.eig.eigenvalues[:P]
    return _picard_solve(spec, lam, pad(data.u0, P), pad(data.u1, P), M, tol)


def power_law_profile(decay: float, cutoff: int, u1_scale: float = 0.0):
    """Initial-data profile p -> (p^(-decay), u1_scale p^(-decay)) up to a cutoff.

    Finitely many nonzero modes guarantee every spectral source condition
    holds with computable constants.
    """
    if cutoff < 1:
        raise DomainError("cutoff must be >= 1")

    def profile(p: int) -> tuple[float, float]:
        if p > cutoff:
            return 0.0, 0.0
        w = float(p) ** (-decay)
        return w, u1_scale * w

    return profile


def manufacture(
    spec: ProblemSpec,
    P: int,
    profile,
    M: int = 64,
) -> tuple[InitialData, FourierField]:
    """Manufactured ground truth: initial data plus its solution at 2M steps.

    ``profile`` maps the 1-based mode index to ``(u0_p, u1_p)``.  The
    reference field is solved on a grid twice as fine as the working grid
    so discretization bias in experiments is dominated by the coarse side.
    """
    pairs = [profile(p) for p in range(1, P + 1)]
    data = InitialData(
        np.array([x for x, _ in pairs], dtype=float),
        np.array([x for _, x in pairs], dtype=float),
    )
    field = solve_mild(spec, data, P, 2 * M)
    return data, field
