"""Two-parameter Mittag-Leffler evaluation on the nonnegative real axis.

Evaluates ``E(beta, gamma; z) = sum_k z^k / Gamma(beta*k + gamma)`` for
``z >= 0`` together with the exact antiderivatives of the Volterra kernel
``s^(beta-1) * E(beta, beta; lam * s^beta)`` that the mild solver needs, and
the empirical calibration of the kernel growth constant ``C3`` that scales
the instability-demo nonlinearity.

Evaluation strategy
-------------------
There is one evaluator, :func:`ml_values`, vectorised over ``z``;
:func:`ml` is its 0-d call.  Every argument takes the power series.  All
its terms are nonnegative for ``z >= 0``, so there is no cancellation, and
compensated (Kahan) summation in double precision suffices.  The term
ratio ``t_{k+1}/t_k = z * Gamma(beta*k+gamma) / Gamma(beta*k+beta+gamma)``
is strictly decreasing in ``k``, so once it drops below 1 the tail is
bounded by a geometric series.  Summation stops when that bound is at
most ``_REL_TOL`` times the running total, which is a lower bound on the
value, or at most an absolute ``tol`` when one is given.

The series needs about ``x / beta`` terms, ``x = z**(1/beta)``.  Rounding
grows with ``x``: for the parameters the solver uses (``beta`` in (1, 2],
``gamma`` 1, 2, ``beta``, ``beta + 1`` or ``beta + 2``) the relative error
against a 40-digit sum stays below 1e-12 up to ``x = 650``.

``log Gamma`` of the series terms is a port of the Cephes routine ``lgam``
(Moshier, *Methods and Programs for Mathematical Functions*, 1989) in
:mod:`fracreg._special`.  Its logarithms come from libm through
``math.log``, never numpy's ``np.log``, which rounds a few inputs in a
million differently; so ``gammaln`` returns the bits of
``scipy.special.gammaln``.

Only real ``z >= 0`` is supported; the solver never needs anything else.
A value beyond floating-point range raises :class:`DomainError`, and so
does an argument beyond the series' reach: its terms overflow, or it needs
more than ``SERIES_TERM_CAP`` terms (at ``beta < 0.1``, ``x`` beyond about
450 to 650).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._special import gammaln
from .errors import DomainError

# Hard cap on series terms; exceeding it raises instead of truncating.
SERIES_TERM_CAP = 10_000

# Relative truncation target when no absolute tol is given.
_REL_TOL = 1e-13

# Reference grid and headroom of calibrate_growth_constants.
_GROWTH_LAM_MAX = 400
_GROWTH_TIMES = 201
_GROWTH_HEADROOM = 1.005


def _check_params(beta: float, gamma: float) -> None:
    """``beta`` must lie in (0, 2] and ``gamma`` must be positive and finite."""
    if not 0.0 < beta <= 2.0:
        raise DomainError(f"beta must be in (0, 2], got {beta}")
    if not 0.0 < gamma < math.inf:
        raise DomainError(f"gamma must be positive, got {gamma}")


@dataclass(frozen=True)
class MLValue:
    """Evaluation result with a truncation-error bound.

    ``est_abs_err`` is the geometric bound on the omitted series tail, so
    it bounds truncation only.  Floating-point rounding of the sum comes on
    top and grows with ``x = z**(1/beta)``: about 6e-13 relative at
    ``x = 650``.
    """

    value: float
    est_abs_err: float


def _series_term0(gamma: float) -> float:
    try:
        return math.exp(-math.lgamma(gamma))
    except OverflowError:
        raise DomainError(f"log Gamma({gamma}) exceeds floating-point range") from None


def ml(beta: float, gamma: float, z: float, tol: float | None = None) -> MLValue:
    """Evaluate ``E(beta, gamma; z)`` at one argument: a 0-d :func:`ml_values`.

    The truncation error is at most ``_REL_TOL`` relative, or at most
    ``tol`` absolute when given; the identity test grid (exp, cosh,
    (e^z-1)/z) holds the value to better than 1e-10.
    """
    value, err = ml_values(beta, gamma, float(z), tol)
    return MLValue(float(value), float(err))


def ml_values(
    beta: float, gamma: float, z, tol: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``E(beta, gamma; z)`` over an array of nonnegative arguments.

    Returns ``(values, est_abs_errs)`` with the shape of ``z``.  Every lane
    takes the power series, summed until its tail bound is at most
    ``_REL_TOL`` times its running total, or at most ``tol`` when given.
    The lanes are driven together, so the shared term loop runs until the
    slowest lane meets its bound.  Raises :class:`DomainError` when a value
    is not representable, and when an argument is beyond the series' reach:
    its terms overflow or the term cap is reached.
    """
    z = np.asarray(z, dtype=float)
    _check_params(beta, gamma)
    if z.size and (np.any(z < 0) or not np.all(np.isfinite(z))):
        raise DomainError("all z must be finite and >= 0")
    if tol is not None and not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    if not z.size:
        return np.empty(z.shape), np.empty(z.shape)
    flat = z.ravel()
    with np.errstate(over="ignore"):  # overflow surfaces as the DomainError below
        vals, errs = _series(beta, gamma, flat, tol)
    if not np.all(np.isfinite(vals)):
        raise DomainError(
            f"E({beta},{gamma}; z) exceeds floating-point range at z = {float(flat.max())!r}"
        )
    return vals.reshape(z.shape), errs.reshape(z.shape)


def _series(
    beta: float, gamma: float, z: np.ndarray, tol: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Power series with a rigorous geometric tail bound, per lane.

    Terms are summed with Kahan compensation until the bound
    ``t_{k+1} / (1 - r_{k+1})`` on every lane's remaining tail is at most
    ``tol`` (absolute), or ``_REL_TOL`` times the lane's running total when
    ``tol`` is None: all terms are positive, so the running total is a lower
    bound on the value.

    The two tests on all lanes read the largest lane alone: a term's
    exponent ``k*lnz - lg[k]`` overflows somewhere exactly when
    ``k*max(lnz) - lg[k]`` does, and the ratio ``r = z*c`` is below 1
    everywhere exactly when ``max(z)*c`` is, because IEEE multiplication
    by a positive scalar and subtraction of a scalar round monotonically.
    So the per-lane tail bound is formed only once every lane can meet it.
    """
    total = np.full(z.size, _series_term0(gamma))
    if gamma + beta == gamma:  # every Gamma argument rounds to gamma: the ratios never fall
        raise DomainError(
            f"successive series terms of E({beta},{gamma}) cannot be resolved at gamma={gamma!r}"
        )
    comp = np.zeros(z.size)
    y = np.empty(z.size)
    t = np.empty(z.size)
    with np.errstate(divide="ignore"):  # z = 0 gives -inf, so its every term is 0.0
        lnz = np.log(z)
    lnz_max = float(lnz.max())
    z_max = float(z.max())

    # log Gamma(beta*k + gamma), extended in doubling chunks as far as the
    # loop reaches; gammaln is elementwise, so every entry is the same bits
    # as in a full table.
    lg = gammaln(beta * np.arange(64) + gamma)

    def term(k: int) -> np.ndarray:
        if k * lnz_max - lg[k] > 709.0:  # exp overflows: z is beyond the series' reach
            raise DomainError(f"series term {k} of E({beta},{gamma}) overflows at z={z_max!r}")
        return np.exp(k * lnz - lg[k])

    t_k = term(1)
    # a total that overflows makes inf - inf in the Kahan update; the NaN
    # fails no "tail > bound" test, so the loop stops and ml_values reports
    # the nonfinite value
    with np.errstate(invalid="ignore"):
        for k in range(1, SERIES_TERM_CAP):
            np.subtract(t_k, comp, out=y)
            np.add(total, y, out=t)
            np.subtract(t, total, out=comp)
            comp -= y
            total, t = t, total

            if k + 2 >= lg.size:
                more = np.arange(lg.size, min(2 * lg.size, SERIES_TERM_CAP + 2))
                lg = np.concatenate((lg, gammaln(beta * more + gamma)))
            # All terms keep being added until the slowest lane (largest z)
            # meets its bound, so the final tail bound is valid lane-by-lane.
            c = math.exp(lg[k + 1] - lg[k + 2])
            t_k = term(k + 1)
            if z_max * c < 1.0:
                tail = t_k / (1.0 - z * c)
                if not (tail > (_REL_TOL * total if tol is None else tol)).any():
                    return total, tail
    raise DomainError(f"series for E({beta},{gamma}) exceeded {SERIES_TERM_CAP} terms")


# ---------------------------------------------------------------------------
# Exact antiderivatives of the Volterra kernel
# ---------------------------------------------------------------------------


def _kernel_args(name: str, beta: float, lam, s) -> tuple[np.ndarray, np.ndarray]:
    if not (1.0 < beta < 2.0):
        raise DomainError(f"{name} requires beta in (1, 2), got {beta}")
    lam = np.asarray(lam, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(lam < 0) or np.any(s < 0):
        raise DomainError("lam and s must be >= 0")
    return lam, s


def kernel_primitive(beta: float, lam, s):
    """Exact integral of the Volterra kernel from 0 to ``s``, elementwise.

    ``int_0^s tau^(beta-1) E(beta, beta; lam tau^beta) dtau
    = s^beta * E(beta, beta+1; lam s^beta)`` (termwise integration of the
    series).  Equals ``s^beta / Gamma(beta+1)`` at ``lam = 0`` and 0 at
    ``s = 0``.  ``lam`` and ``s`` broadcast against each other.
    """
    lam, s = _kernel_args("kernel_primitive", beta, lam, s)
    e, _ = ml_values(beta, beta + 1.0, lam * s**beta)
    return s**beta * e


def kernel_double_primitive(beta: float, lam, s):
    """Integral of :func:`kernel_primitive` from 0 to ``s``, elementwise.

    Equals ``s^(beta+1) * E(beta, beta+2; lam s^beta)``; needed for the
    first moment of the kernel in piecewise-linear product integration.
    """
    lam, s = _kernel_args("kernel_double_primitive", beta, lam, s)
    e, _ = ml_values(beta, beta + 2.0, lam * s**beta)
    return s ** (beta + 1.0) * e


# ---------------------------------------------------------------------------
# Exponential growth envelope
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthConstants:
    """Empirical envelope constant of the kernel growth bound.

    ``C3`` is the supremum over a reference (lam, t) grid of
    ``t^(beta-1) E(beta,beta; lam t^beta) / exp(lam^(1/beta) t)``; it
    scales the contraction nonlinearity used by the instability demo.
    """

    C3: float


@lru_cache(maxsize=32)
def calibrate_growth_constants(beta: float, a: float) -> GrowthConstants:
    """Empirical supremum of the kernel growth ratio over a reference grid.

    The reference grid is all integer eigenvalues up to 400 crossed with
    201 uniform times in [0, a].  The constant is never quoted in closed
    form anywhere; it exists, and this pins a usable value.  A headroom
    factor of 1.005 covers the residual grid-refinement error so the
    constant keeps dominating the ratio between reference points (the
    ratio plateaus in t for large lam, so 0.5% is generous).  Requires
    ``beta`` in (1, 2): for ``beta <= 1`` the ratio is unbounded as
    ``t -> 0``.  The result depends only on ``(beta, a)`` and is cached.
    """
    if not (1.0 < beta < 2.0):
        raise DomainError(f"growth ratios require beta in (1, 2), got {beta}")
    if a <= 0:
        raise DomainError(f"horizon a must be positive, got {a}")
    lams = np.arange(1, _GROWTH_LAM_MAX + 1, dtype=float)[:, None]
    ts = np.linspace(0.0, a, _GROWTH_TIMES)[None, :]
    e, _ = ml_values(beta, beta, lams * ts**beta)
    ratio = ts ** (beta - 1.0) * e * np.exp(-(lams ** (1.0 / beta)) * ts)
    return GrowthConstants(float(ratio.max()) * _GROWTH_HEADROOM)
