"""Two-parameter Mittag-Leffler evaluation on the nonnegative real axis.

Evaluates ``E(beta, gamma; z) = sum_k z^k / Gamma(beta*k + gamma)`` for
``z >= 0`` together with the exact antiderivatives of the Volterra kernel
``s^(beta-1) * E(beta, beta; lam * s^beta)`` that the mild solver needs, and
the empirical calibration of the kernel growth constant ``C3`` that scales
the instability-demo nonlinearity.

Evaluation strategy
-------------------
There is one evaluator, :func:`ml_values`, vectorised over ``z``;
:func:`ml` is its 0-d call.  All series terms are nonnegative for
``z >= 0``, so there is no cancellation and double precision suffices
everywhere.  Each argument takes one of two branches:

* ``x = z**(1/beta) <= SERIES_SWITCH_X``: the power series, summed with
  compensated (Kahan) accumulation.  The term ratio
  ``t_{k+1}/t_k = z * Gamma(beta*k+gamma) / Gamma(beta*k+beta+gamma)``
  is strictly decreasing in ``k``, so once it drops below 1 the tail is
  bounded by a geometric series; summation stops when that bound meets the
  tolerance (relative ``_REL_TOL`` by default, or an absolute ``tol``,
  which sends every argument down this branch).
* ``x > SERIES_SWITCH_X``: the large-argument expansion
  ``(1/beta) * z^((1-gamma)/beta) * exp(x) - sum_{k=1}^{K} z^(-k)/Gamma(gamma - beta*k)``
  with ``K = ASYMPTOTIC_TERMS`` corrections.  Correction terms whose Gamma
  argument sits on a pole vanish (reciprocal Gamma).  For ``beta == 2``
  exactly, the reflected exponential ``exp(-x)`` branch is added, which makes
  the ``cosh``/``sinh`` cases exact.  The two branches agree to ~1e-13
  relative at the switchover (checked by the continuity tests).

The ~1e-13 relative accuracy holds for ``gamma <= beta + 2``, which covers
every call the solver makes (``gamma`` is 1, 2, ``beta``, ``beta + 1`` or
``beta + 2``).  For larger ``gamma`` with ``beta`` near 1, the first omitted
asymptotic correction just past the switchover is no longer small; the
error then grows to about its size, which ``est_abs_err`` reports.

``log Gamma`` (the series terms) and ``1 / Gamma`` (the asymptotic
corrections) are ports of the Cephes routines ``lgam`` and ``rgamma``
(Moshier, *Methods and Programs for Mathematical Functions*, 1989) in
:mod:`fracreg._special`.  Their logarithms come from libm through
``math.log``, never numpy's ``np.log``, which rounds a few inputs in a
million differently; so ``gammaln`` returns the bits of
``scipy.special.gammaln``.

Only real ``z >= 0`` is supported; the solver never needs anything else.
A value beyond floating-point range raises :class:`DomainError`, and so
does an argument beyond the reach of the forced series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._special import gammaln, rgamma
from .errors import DomainError

# Series/asymptotic switchover in x = z**(1/beta).  The series still
# converges beyond this point but needs ever more terms, while the
# asymptotic remainder is already below 1e-15 relative here.
SERIES_SWITCH_X = 25.0

# Hard cap on series terms; exceeding it raises instead of truncating.
SERIES_TERM_CAP = 10_000

# Correction depth of the large-argument expansion.
ASYMPTOTIC_TERMS = 5

# Internal relative accuracy target for the dispatcher.
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
    """Evaluation result with a truncation-error estimate.

    ``est_abs_err`` estimates the truncation error of whichever branch
    produced the value.  On the series branch it is the geometric tail
    bound, a true bound.  On the asymptotic branch it is the first omitted
    correction, which just past the switchover can fall slightly short of
    the true error.  Floating-point rounding adds at most a few ulps on top
    because all quantities are positive.
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

    Relative accuracy is ~1e-13 in exact arithmetic terms; the identity
    test grid (exp, cosh, (e^z-1)/z) holds it to better than 1e-10.  With
    ``tol`` the power series runs to that absolute tolerance whatever ``z``.
    """
    value, err = ml_values(beta, gamma, float(z), tol)
    return MLValue(float(value), float(err))


def ml_values(
    beta: float, gamma: float, z, tol: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``E(beta, gamma; z)`` over an array of nonnegative arguments.

    Returns ``(values, est_abs_errs)`` with the shape of ``z``.  Each lane
    takes the branch its ``x = z**(1/beta)`` selects and meets the relative
    target ``_REL_TOL``; with ``tol`` every lane takes the power series with
    that absolute tail bound instead.  The series lanes are driven together:
    the largest argument converges last, so its tail bound terminates the
    shared term loop.  Raises :class:`DomainError` when a value is not
    representable, and when an argument is beyond the forced series' reach:
    its terms overflow or the term cap is reached.
    """
    z = np.asarray(z, dtype=float)
    _check_params(beta, gamma)
    if z.size and (np.any(z < 0) or not np.all(np.isfinite(z))):
        raise DomainError("all z must be finite and >= 0")
    if tol is not None and not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    flat = z.ravel()
    vals = np.empty_like(flat)
    errs = np.empty_like(flat)

    with np.errstate(over="ignore"):  # overflow surfaces as the DomainError below
        if tol is None:
            ser = flat ** (1.0 / beta) <= SERIES_SWITCH_X
        else:
            ser = np.ones(flat.shape, dtype=bool)
        if np.any(ser):
            v, e = _series(beta, gamma, flat[ser], tol)
            vals[ser] = v
            errs[ser] = e
        if np.any(~ser):
            v, e = _asymptotic(beta, gamma, flat[~ser])
            vals[~ser] = v
            errs[~ser] = e
    if not np.all(np.isfinite(vals)):
        raise DomainError(
            f"E({beta},{gamma}; z) exceeds floating-point range at z = {float(flat.max())!r}"
        )
    return vals.reshape(z.shape), errs.reshape(z.shape)


def _magnitude(beta: float, gamma: float, z: np.ndarray) -> np.ndarray:
    """Crude lower-order estimate of E(beta,gamma;z), used to set the
    absolute series tolerance from the relative target."""
    first = _series_term0(gamma)
    pos = z > 0.0
    zz = np.where(pos, z, 1.0)
    arg = zz ** (1.0 / beta) + (1.0 - gamma) / beta * np.log(zz) - math.log(beta)
    return np.where(pos, np.maximum(first, np.exp(np.minimum(arg, 700.0))), first)


def _series(
    beta: float, gamma: float, z: np.ndarray, tol: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Power series with a rigorous geometric tail bound, per lane.

    Terms are summed with Kahan compensation until the bound
    ``t_{k+1} / (1 - r_{k+1})`` on every lane's remaining tail is at most
    ``tol`` (absolute), or the relative target when ``tol`` is None.

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
    if tol is None:
        tol = _REL_TOL * _magnitude(beta, gamma, z)

    # log Gamma(beta*k + gamma), extended in doubling chunks as far as the
    # loop reaches; gammaln is elementwise, so every entry is the same bits
    # as in a full table.
    lg = gammaln(beta * np.arange(64) + gamma)

    def term(k: int) -> np.ndarray:
        if k * lnz_max - lg[k] > 709.0:  # exp overflows: z is beyond the series' reach
            raise DomainError(f"series term {k} of E({beta},{gamma}) overflows at z={z_max!r}")
        return np.exp(k * lnz - lg[k])

    t_k = term(1)
    # a total that overflows makes inf - inf in the Kahan update; ml_values
    # reports the nonfinite value
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
                if (tail <= tol).all():
                    return total, tail
    raise DomainError(f"series for E({beta},{gamma}) exceeded {SERIES_TERM_CAP} terms")


def _asymptotic(beta: float, gamma: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = z ** (1.0 / beta)
    main = np.exp(x + (1.0 - gamma) / beta * np.log(z) - math.log(beta))
    if beta == 2.0:
        main = main + x ** (1.0 - gamma) * math.cos(math.pi * (1.0 - gamma)) * np.exp(-x) / beta
    corr = np.zeros_like(z)
    for k in range(1, ASYMPTOTIC_TERMS + 1):
        corr += rgamma(gamma - beta * k) * z ** (-float(k))
    err = abs(rgamma(gamma - beta * (ASYMPTOTIC_TERMS + 1))) * z ** (
        -float(ASYMPTOTIC_TERMS + 1)
    ) + main * (x + 2.0) * 1e-16
    return main - corr, err


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
