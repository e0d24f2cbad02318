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
generating weights, never as a dense matrix.  The homogeneous terms come
from the same two kernel antiderivatives, by ``E(beta,g; z) = 1/Gamma(g) +
z E(beta,beta+g; z)``, so a table build sums two Mittag-Leffler series.
Every table is mode-major like them: row p holds mode p along the time
grid, the axis each stage works along.

Every source is a mode-diagonal map: mode p is multiplied by a known
factor ``m_p(t)``, so each mode's discrete equation is the lower-triangular
system ``(I - L_p diag(m_p)) U_p = H_p``.  It is solved exactly once per
problem shape for unit ``u0`` and ``u1`` by block-wise forward
substitution: each block of rows takes its history by direct convolution
and solves its own small triangular system for all modes at once.  Each
mode's rows have the bits of its build alone, so the first P rows of a
cached table serve any problem whose spectrum is its first P modes.  Every
solve combines the two cached responses linearly, at every grid row or
only at the rows its caller names.  The equation's right-hand side for
unit data is cached too, evaluated by Toeplitz convolution, so each solve
checks the residual of every field at every grid row, returned or not, and
raises :class:`NoConvergence` when one exceeds the tolerance.  The
residual and the field are linear in the data, so each row norm is a
quadratic form in it, and the check forms no field.

Everything here is pure and deterministic; per-mode work is independent (the
reduction orders are fixed), so results do not depend on any parallel
schedule.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoConvergence, check_budget
from .mittag_leffler import kernel_double_primitive, kernel_primitive
from .spectral import EigenSystem, as_coeffs, pad, power_law

DEFAULT_TOL = 1e-10

# Rows per step of the block-wise forward substitution in _problem_tables.
_BLOCK = 32

# Modes times grid rows per block of the residual check in _picard_solve: its
# work arrays stay this size, whatever M.
_CHECK_BLOCK = 2048

# Desk-scale limit on the time steps M of a solve.  A cold table costs
# O(P M^2) time, on the order of 30 s at this M, and a grid far beyond it
# would exhaust memory before its first table was built.
_M_MAX = 1 << 16


@dataclass(frozen=True)
class NonlinearitySpec:
    """Descriptor of the source nonlinearity G, a mode-diagonal map.

    ``damped``     the damped map of the rate experiments: mode-wise
                   multiplier ``K / (1 + lam_p)``, Lipschitz constant ``K``.
                   ``K = 0`` is no forcing.
    ``gbar``       the contraction nonlinearity of the instability
                   construction: mode-wise multiplier
                   ``exp(lam_p^(1/beta) (t - a)) / (2 a C3)``.

    ``K`` must be finite and >= 0, and ``C3`` finite (and > 0 for
    ``gbar``; ``damped`` ignores it).  With no NaN field, equal sources
    compare equal, so a source keys the solver's table cache.
    """

    kind: str
    K: float = 0.0
    C3: float = 0.0

    def __post_init__(self):
        if self.kind not in ("damped", "gbar"):
            raise DomainError(f"unknown nonlinearity kind {self.kind!r}")
        if not 0.0 <= self.K < math.inf:
            raise DomainError(f"Lipschitz constant must be finite and >= 0, got {self.K}")
        if self.kind == "gbar" and not 0.0 < self.C3 < math.inf:
            raise DomainError(f"gbar needs a finite positive C3, got {self.C3}")
        if not math.isfinite(self.C3):
            raise DomainError(f"C3 must be finite, got {self.C3}")

    @classmethod
    def damped(cls, K: float) -> "NonlinearitySpec":
        return cls(kind="damped", K=K)

    @classmethod
    def gbar(cls, C3: float) -> "NonlinearitySpec":
        return cls(kind="gbar", C3=C3)

    def multiplier(self, beta: float, a: float, lam: np.ndarray, t: np.ndarray) -> np.ndarray:
        """(len(t), P) mode-wise multiplier ``m_p(t_i)``: ``G_p(t_i, u) = m_p(t_i) u_p``."""
        if self.kind == "damped":
            return np.broadcast_to(self.K / (1.0 + lam), (t.size, lam.size))
        return np.exp(lam[None, :] ** (1.0 / beta) * (t[:, None] - a)) / (2.0 * a * self.C3)


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
        if not 0.0 < self.a < math.inf or self.beta * math.log(self.a) > 709.0:  # a**beta in range
            raise DomainError(f"horizon a must be finite and positive, with a**beta < e^709, "
                              f"got {self.a}")


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


def _grid_rows(rows, M: int) -> np.ndarray:
    """``rows`` as an index array into the M-step grid; a DomainError unless
    it is a non-empty 1-D sequence of integers in 0..M."""
    idx = np.asarray(rows)
    if idx.ndim != 1 or idx.size == 0 or idx.dtype.kind not in "iu" or not (
        np.all(idx >= 0) and np.all(idx <= M)
    ):
        raise DomainError(f"rows must be a non-empty list of grid rows in 0..{M}, got {rows!r}")
    return idx.astype(np.intp)


@dataclass(frozen=True)
class FourierField:
    """Solution values on a uniform time grid: row i holds u(t_i) coefficients.

    ``coeffs`` is (M+1, P), or (R, M+1, P) for a batch of R fields solved
    from (R, P) data.  A field solved at some ``rows`` of the grid only
    holds those, in the order given: its row k is ``u(t_grid[rows[k]])``,
    and ``coeffs`` is (len(rows), P) or (R, len(rows), P).  ``picard_diffs``
    holds the residual of the discrete equation at the field, over every
    grid row, shape (1,), or (R, 1) with one row per field of a batch.
    """

    t_grid: np.ndarray
    coeffs: np.ndarray
    picard_diffs: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.coeffs)):
            raise DomainError("field coefficients must be finite")


# ---------------------------------------------------------------------------
# Kernel tables
# ---------------------------------------------------------------------------


def _kernel_tables(beta: float, a: float, lam: np.ndarray, M: int):
    """Homogeneous-mode tables and Toeplitz Volterra weights on the M-grid.

    Returns ``(E1, E2t, C, W0)``, each (P, M+1), row p for mode p.  ``E1``
    and ``E2t`` hold ``E(beta,1; lam t^beta)`` and ``t E(beta,2; lam
    t^beta)``, formed from the kernel antiderivatives ``K1 = t^beta
    E(beta,beta+1; lam t^beta)`` and ``K2 = t^(beta+1) E(beta,beta+2; lam
    t^beta)`` as ``1 + lam K1`` and ``t + lam K2``, by ``E(beta,g; z) =
    1/Gamma(g) + z E(beta,beta+g; z)`` (Gorenflo, Kilbas, Mainardi &
    Rogosin, *Mittag-Leffler Functions*, Springer 2014): every term is
    nonnegative, so nothing cancels, and the build sums two series.  ``C``
    and ``W0`` are the generating weights of the lower-triangular
    product-integration matrices ``L_p``, for which ``(L_p @ g_p)[i]``
    integrates the kernel against the piecewise linear interpolant of
    ``g_p`` over [0, t_i]:

        L_p[i, j] = C[p, i-j]   for 1 <= j <= i,
        L_p[i, 0] = W0[p, i]    (W0[p, 0] = 0),

    and zero above the diagonal.  Storage is O(P M).  Each row has the bits
    it has in a build of its mode alone.  A horizon whose kernel is past
    the series' reach is a one-line :class:`DomainError` naming ``a``,
    ``beta`` and the mode count.
    """
    t = np.linspace(0.0, a, M + 1)
    dt = a / M

    # Exact kernel antiderivatives at the lag points s = l*dt.
    try:
        K1 = kernel_primitive(beta, lam[:, None], t[None, :])
        K2 = kernel_double_primitive(beta, lam[:, None], t[None, :])
    except DomainError as exc:
        raise DomainError(f"horizon a={a!r} at beta={beta!r} puts the kernel of {lam.size} modes "
                          f"beyond the Mittag-Leffler series: {exc}") from None
    E1 = lam[:, None] * K1
    E1 += 1.0
    E2t = lam[:, None] * K2
    E2t += t

    # Per-cell weights in lag form: a cell at lags (l-1, l) contributes to its
    # left node with weight W0[l] and to its right node with R[l-1].  A node
    # j >= 1 is the left node of one cell and the right node of the next, so
    # its weight at lag l is C[l] = R[l] + W0[l] (W0[0] = 0), R formed in C.
    s_all = np.arange(M + 1, dtype=float) * dt
    dK1 = K1[:, 1:] - K1[:, :-1]  # lag l-1 -> l, index l-1
    T = s_all[1:] * K1[:, 1:] - s_all[:-1] * K1[:, :-1] - (K2[:, 1:] - K2[:, :-1])
    W0 = np.zeros_like(K1)
    C = np.zeros_like(K1)
    W0[:, 1:] = (-s_all[:-1] * dK1 + T) / dt
    C[:, :-1] = (s_all[1:] * dK1 - T) / dt
    C += W0
    return E1, E2t, C, W0


def _volterra_product(C: np.ndarray, W0: np.ndarray, G: np.ndarray) -> np.ndarray:
    """(P, M+1) array of ``(L_p @ G[p])[i]``, the quadrature of every row.

    The Toeplitz part is a direct convolution per mode.  The weights span
    many decades at large ``lam t^beta``, where FFT rounding would swamp the
    small early rows.
    """
    M = G.shape[1] - 1
    V = W0 * G[:, :1]
    for p in range(G.shape[0]):
        V[p, 1:] += np.convolve(C[p], G[p, 1:])[:M]
    return V


def _max_row_norm(Y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Max over rows of the row L2 norm of the fields ``T0 * c0 + T1 * c1``,
    shape (..., 1), from quadratic forms in the data: no field is formed.

    ``Y`` is a (3P, n) work block holding n grid columns of the (P, M+1)
    tables ``T0`` in its first P rows and ``T1`` in its last P rows; it is
    overwritten.  ``w`` holds the (..., 1, 3P) products ``(c0^2, 2 c0 c1,
    c1^2)``; the squared norm of row i is ``(T0^2 c0^2 + 2 T0 T1 c0 c1 +
    T1^2 c1^2)[i]``, one sum of 3P terms.  The tables are scaled by a power
    of two, exactly, so their squares stay in range.  Each field's sums run
    in the same order whatever the batch, so its norm has the bits of its
    solve alone.  Rounding can leave a row that cancels to zero a little
    below it; that square is taken as 0 (NaN stays NaN).
    """
    V = Y.reshape(3, Y.shape[0] // 3, Y.shape[1])  # (T0, product, T1), views of Y
    T = V[::2]
    e = np.frexp(np.max(np.abs(T), initial=0.0))[1]
    np.ldexp(T, -e, out=T)
    np.multiply(V[0], V[2], out=V[1])
    np.square(T, out=T)
    q = np.max(np.einsum("pi,...p->...i", Y, w), axis=-1)
    return np.ldexp(np.sqrt(np.maximum(q, 0.0)), e)


# Built solver tables, keyed by (beta, a, lams, M, source), least recently used first.
_TABLES: OrderedDict = OrderedDict()
_TABLES_MAX = 32


def _problem_tables(beta: float, a: float, lams: tuple, M: int, source: NonlinearitySpec):
    """Every table of one solve problem, built once per problem shape.

    Returns ``(F1, F2, A1, A2)``, each (P, M+1), row p for mode p, from
    :func:`_build_tables`.  The tables of the last ``_TABLES_MAX`` builds
    are kept, so Monte-Carlo replicates over the same problem pay for the
    Mittag-Leffler sweep, the substitution and the convolutions once.  Every
    row of a build has the bits of the same mode's row in any build with
    the same beta, a, M and source, so a call whose eigenvalues are a prefix
    of a kept build's gets the row prefix ``T[:P]`` of its four tables.
    """
    P = len(lams)
    for key, tables in reversed(_TABLES.items()):
        b2, a2, lams2, M2, src2 = key
        if (b2, a2, M2, src2) == (beta, a, M, source) and lams2[:P] == lams:
            break
    else:
        key = (beta, a, lams, M, source)
        tables = _TABLES[key] = _build_tables(beta, a, lams, M, source)
        if len(_TABLES) > _TABLES_MAX:
            _TABLES.popitem(last=False)
    _TABLES.move_to_end(key)
    return tuple(table[:P] for table in tables)


@np.errstate(over="ignore", invalid="ignore")  # overflow surfaces as the residual check failing
def _build_tables(beta: float, a: float, lams: tuple, M: int, source: NonlinearitySpec):
    """Build every table of one solve problem.

    Returns ``(F1, F2, A1, A2)``, each (P, M+1), row p for mode p.  For
    ``G_p(t, u) = m_p(t) u_p``, with ``m`` the multiplier of ``source``, the
    discrete equation of mode p is the lower-triangular system ``(I - L_p
    diag(m_p)) U_p = H_p`` with ``H_p = E1[p] u0_p + E2t[p] u1_p`` and the
    kernel tables of :func:`_kernel_tables`.  Forward substitution in blocks
    of ``_BLOCK`` rows gives the exact responses ``F1`` and ``F2`` to unit
    data, such that ``U = F1 * u0 + F2 * u1`` solves the system for any
    data; each block of them is written over the block of ``H`` it solves.
    A block ``[s, e)`` adds to its right-hand side the history of rows
    ``1..s-1``, one direct convolution per mode and response, and then
    solves its in-block triangular system ``I - T diag(m[s:e])``, with
    ``T[p, i, j] = C[p, i-j]`` shared by every block, for all modes in one
    batched solve.  Every stage works mode by mode, so each row has the bits
    of its mode's build alone.  A step whose diagonal entry is exactly zero
    has no solution; it leaves the responses NaN from its block on, so every
    solve fails its check.  ``A1 = E1 + L(m F1)`` and ``A2 = E2t + L(m F2)``
    are the right-hand side ``H + L(m U)`` of the equation for unit data,
    with ``L`` applied to all rows by Toeplitz convolution, independently of
    the substitution, so a solve can check its field against the equation.
    A build whose peak passes the desk-scale budget is refused before it
    starts.
    """
    P, b = len(lams), min(M, _BLOCK)
    # traced: 12.2-13.1 (M+1) doubles per mode at M >= 1024; the b x b blocks dominate at small M
    peak = P * (13 * (M + 1) + 4 * b * b)
    check_budget(peak, f"the solver tables of {P} modes x {M} steps (peak {peak} doubles)")
    lam = np.asarray(lams, dtype=float)
    E1, E2t, C, W0 = _kernel_tables(beta, a, lam, M)
    m = source.multiplier(beta, a, lam, np.linspace(0.0, a, M + 1)).T  # (P, M+1)
    F = np.stack([E1, E2t], axis=1)  # (P, 2, M+1): H, overwritten block by block with F
    mF = np.empty_like(F)  # forcing of the responses, m * F
    mF[:, :, 0] = m[:, None, 0] * F[:, :, 0]
    # The in-block part of every L_p, shared by all blocks: T[p, i, j] = C[p, i-j], i >= j.
    T = np.zeros((lam.size, b, b))
    for i in range(b):
        T[:, i, : i + 1] = C[:, i::-1]
    for s in range(1, M + 1, _BLOCK):
        e = min(s + _BLOCK, M + 1)
        rhs = F[:, :, s:e] + W0[:, None, s:e] * mF[:, :, :1]
        if s > 1:  # the history of rows 1..s-1, by direct convolution (see _volterra_product)
            for p, r in np.ndindex(lam.size, 2):
                rhs[p, r] += np.convolve(C[p, 1:e], mF[p, r, 1:s], "valid")[: e - s]
        A = np.multiply(T[:, : e - s, : e - s], m[:, None, s:e])
        np.subtract(np.eye(e - s), A, out=A)
        try:
            # A triangular block is singular just where its diagonal holds a
            # zero, which LAPACK's row pivoting can round into a tiny pivot.
            if not A.diagonal(0, 1, 2).all():
                raise np.linalg.LinAlgError("singular step")
            F[:, :, s:e] = np.linalg.solve(A, rhs.transpose(0, 2, 1)).transpose(0, 2, 1)
        except np.linalg.LinAlgError:  # an exactly singular step has no solution:
            F[:, :, s:] = mF[:, :, s:] = np.nan  # the residual check fails every solve
            break
        mF[:, :, s:e] = m[:, None, s:e] * F[:, :, s:e]
    A1 = E1 + _volterra_product(C, W0, mF[:, 0])
    return F[:, 0], F[:, 1], A1, E2t + _volterra_product(C, W0, mF[:, 1])


def _picard_solve(
    spec: ProblemSpec, lam: np.ndarray, u0: np.ndarray, u1: np.ndarray, M: int, rows=None
) -> FourierField:
    """Exact solution of the discrete mild equation: the one entry of every solve.

    Combines the cached exact responses, for (P,) data or for every row of
    (R, P) data at once, into ``U = F1 u0 + F2 u1``, at every grid row or,
    given an index array ``rows``, at those rows only.  The source is
    linear, so the right-hand side ``H + L(m U)`` of the equation at ``U``
    is ``A1 u0 + A2 u1``; each field's residual ``(A1 - F1) u0 + (A2 - F2)
    u1`` over every grid row, returned or not, is recorded as the field's
    single ``picard_diffs`` entry.  It and the field norm that scales its
    tolerance are read from the cached (P, M+1) tables as quadratic forms
    in the data, so no (R, M+1, P) array is formed.  The field is formed in
    C order: a sum over its modes rounds by the memory order of that axis.
    """
    F1, F2, A1, A2 = _problem_tables(spec.beta, spec.a, tuple(lam.tolist()), M, spec.nonlinearity)
    c0, c1 = u0[..., None, :], u1[..., None, :]
    # Each field's data, scaled exactly by a power of two to at most 1, and
    # the tables in blocks of grid rows, so the work arrays stay small at any M.
    e = np.frexp(np.maximum(np.max(np.abs(c0), axis=-1, initial=0.0),
                            np.max(np.abs(c1), axis=-1, initial=0.0)))[1]
    s0, s1 = np.ldexp(c0, -e[..., None]), np.ldexp(c1, -e[..., None])
    w = np.concatenate((s0 * s0, 2.0 * s0 * s1, s1 * s1), axis=-1)
    residual = norm = 0.0
    P = lam.size
    step = max(1, _CHECK_BLOCK // max(P, 1))
    with np.errstate(over="ignore", invalid="ignore"):  # surfaces as the check failing
        for s in range(0, M + 1, step):
            b = slice(s, s + step)
            Y = np.empty((3 * P, F1[:, b].shape[1]))
            np.subtract(A1[:, b], F1[:, b], out=Y[:P])
            np.subtract(A2[:, b], F2[:, b], out=Y[2 * P :])
            residual = np.maximum(residual, _max_row_norm(Y, w))
            Y[:P], Y[2 * P :] = F1[:, b], F2[:, b]
            norm = np.maximum(norm, _max_row_norm(Y, w))
        residual, norm = np.ldexp(residual, e), np.ldexp(norm, e)
    # The residual of an exact solve is rounding, which grows with the field:
    # DEFAULT_TOL is absolute up to a field norm of 1 and relative beyond.  A
    # norm past floating-point range leaves no finite tolerance: that field fails.
    bound = DEFAULT_TOL * np.maximum(1.0, norm)
    failed = np.flatnonzero(~(residual <= bound) | ~np.isfinite(bound))
    if failed.size:
        src, r = spec.nonlinearity, failed[0]
        why = f"left a residual {residual.flat[r]:.3e} above {bound.flat[r]:.3e}"
        if not np.isfinite(bound.flat[r]):
            why = "overflowed: its norm exceeds floating-point range"
        if not all(np.isfinite(T).all() for T in (F1, F2, A1, A2)):
            constant = f"K={src.K:g}" if src.kind == "damped" else f"C3={src.C3:g}"
            why = f"failed: its solver tables are not finite ({src.kind}, {constant})"
        raise NoConvergence(f"exact {src.kind} solve of field {r} {why}", float(residual.flat[r]))
    if rows is not None:
        F1, F2 = F1[:, rows], F2[:, rows]
    U = np.multiply(F1.T, c0, order="C")
    U += F2.T * c1
    return FourierField(np.linspace(0.0, spec.a, M + 1), U, picard_diffs=residual)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def solve_mild(
    spec: ProblemSpec,
    data: InitialData,
    P: int,
    M: int,
    rows=None,
) -> FourierField:
    """Fixed point of the coefficient-space mild-solution map.

    The discrete equation is solved exactly, and the field carries its
    residual, measured in the discrete C([0,a]; L2) norm (the max over grid
    rows of the row L2 norm), as its one ``picard_diffs`` entry.  Raises
    :class:`NoConvergence` with that residual if it exceeds ``DEFAULT_TOL``
    (times the field norm, where that exceeds 1).

    Data holding (R, P) blocks gives an (R, M+1, P) field, row r solved from
    data row r.  ``rows``, a list of grid rows in 0..M in any order, returns
    the field at those rows only, with the bits of the same rows of the
    whole field; the residual check still covers every grid row.  ``P = 0``
    solves no mode: the field is zero-width, (M+1, 0) or (R, M+1, 0), and
    every residual is 0.  ``M`` is at most ``2**16``: a cold table costs
    O(P M^2) time.  The returned field, and a cold table build's peak, hold
    at most ``2**27`` doubles (1 GiB); more is refused before any table.

    The un-truncated problem is ill-posed; this is the desk-scale forward
    map on finitely many modes, not a well-posedness claim.
    """
    if P < 0 or P > spec.eig.count:
        raise DomainError(f"P must be in 0..{spec.eig.count}, got {P}")
    if not 1 <= M <= _M_MAX:  # before any table is allocated
        raise DomainError(f"M must be in 1..{_M_MAX}, the desk-scale limit, got {M}")
    lam = spec.eig.eigenvalues[:P]
    rows = None if rows is None else _grid_rows(rows, M)
    R = math.prod(data.u0.shape[:-1])
    held = M + 1 if rows is None else rows.size
    check_budget(R * held * P, f"a field of {R * held * P} doubles ({R} fields x {held} rows "
                               f"x {P} modes)")
    return _picard_solve(spec, lam, pad(data.u0, P), pad(data.u1, P), M, rows)


def manufacture(
    spec: ProblemSpec, P: int, decay: float, u1_scale: float, M: int
) -> tuple[InitialData, FourierField]:
    """Manufactured ground truth: power-law data plus its solution at 2M steps.

    Modes ``p = 1..P`` carry ``u0_p = p^(-decay)`` and ``u1_p = u1_scale
    p^(-decay)``; finitely many nonzero modes make every spectral source
    condition hold with computable constants.  The reference field is
    solved on a grid twice as fine as the working grid so discretization
    bias in experiments is dominated by the coarse side, so ``M`` is at most
    ``2**15``.
    """
    if not 1 <= M <= _M_MAX // 2:  # before any table is allocated
        raise DomainError(f"M must be in 1..{_M_MAX // 2}, got {M}: the reference is solved "
                          f"at 2M, and a solve takes at most {_M_MAX} steps")
    w = power_law(P, decay)
    data = InitialData(w, u1_scale * w)
    field = solve_mild(spec, data, P, 2 * M)
    return data, field
