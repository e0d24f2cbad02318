"""Two-parameter Mittag-Leffler evaluation on the nonnegative real axis.

Evaluates ``E(beta, gamma; z) = sum_k z^k / Gamma(beta*k + gamma)`` for
``z >= 0`` together with the exact antiderivatives of the Volterra kernel
``s^(beta-1) * E(beta, beta; lam * s^beta)`` that the mild solver needs, and
the kernel growth constant ``C3``, one Mittag-Leffler value at the kernel
growth ratio's supremum, that scales the instability-demo nonlinearity.

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

Only real ``z >= 0`` is supported; the solver never needs anything else.
A value beyond floating-point range raises :class:`DomainError`, and so
does an argument beyond the series' reach: its terms overflow, or it needs
more than ``SERIES_TERM_CAP`` terms (at ``beta < 0.1``, ``x`` beyond about
450 to 650).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Hard cap on series terms; exceeding it raises instead of truncating.
SERIES_TERM_CAP = 10_000

# Relative truncation target when no absolute tol is given.
_REL_TOL = 1e-13

# Absolute truncation tol and headroom of calibrate_growth_constants.
_GROWTH_TOL = 1e-20
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

    The tests on all lanes read the largest lane first: a term's
    exponent ``k*lnz - lg_k`` overflows somewhere exactly when
    ``k*max(lnz) - lg_k`` does, and the ratio ``r = z*c`` is below 1
    everywhere exactly when ``max(z)*c`` is, because IEEE multiplication
    by a positive scalar and subtraction of a scalar round monotonically.
    Once it is, the largest lane's own tail bound, a scalar with the bits
    of its lane of the full test, is tested next: while it fails, the full
    test would fail too.  So the per-lane tail bound is formed only once the
    largest lane meets it, and the stop term is that of the full test.
    """
    try:
        total = np.full(z.size, math.exp(-math.lgamma(gamma)))
    except OverflowError:
        raise DomainError(f"log Gamma({gamma}) exceeds floating-point range") from None
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
    i_max = int(z.argmax())
    z_max = float(z[i_max])

    def term(k: int, lg_k: float) -> np.ndarray:
        """Term ``k``, given ``lg_k = log Gamma(beta*k + gamma)``."""
        if k * lnz_max - lg_k > 709.0:  # exp overflows: z is beyond the series' reach
            raise DomainError(f"series term {k} of E({beta},{gamma}) overflows at z={z_max!r}")
        return np.exp(k * lnz - lg_k)

    t_k = term(1, math.lgamma(beta + gamma))
    lg_next = math.lgamma(beta * 2 + gamma)  # log Gamma(beta*(k+1) + gamma) at the loop's k
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

            # All terms keep being added until the slowest lane (largest z)
            # meets its bound, so the final tail bound is valid lane-by-lane.
            lg_k1, lg_next = lg_next, math.lgamma(beta * (k + 2) + gamma)
            c = math.exp(lg_k1 - lg_next)
            t_k = term(k + 1, lg_k1)
            r_max = z_max * c
            if r_max < 1.0 and not (
                t_k[i_max] / (1.0 - r_max) > (_REL_TOL * total[i_max] if tol is None else tol)
            ):
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
    """Envelope constant of the kernel growth bound.

    ``C3`` bounds ``t^(beta-1) E(beta,beta; lam t^beta) / exp(lam^(1/beta) t)``
    over ``lam >= 1`` and ``0 <= t <= a``, with 0.5% headroom; it scales the
    contraction nonlinearity used by the instability demo.
    """

    C3: float


def calibrate_growth_constants(beta: float, a: float) -> GrowthConstants:
    """The kernel growth ratio at its supremum ``lam = 1, t = a``, times 1.005.

    The ratio ``g(lam, t) = t^(beta-1) E(beta,beta; lam t^beta)
    exp(-lam^(1/beta) t)`` scales as ``lam^((1-beta)/beta) h(lam^(1/beta) t)``
    with ``h(s) = s^(beta-1) E(beta,beta; s^beta) e^(-s)``, which rises toward
    its limit ``1/beta`` (Podlubny, *Fractional Differential Equations*, 1999,
    Thm 1.4).  So ``g`` rises along ``t``; it falls along ``lam``, as
    ``E(beta,beta; s^beta) e^(-s)`` falls in ``s``.  Over ``lam >= 1`` and
    ``0 <= t <= a`` its supremum is ``h(a)``, summed here to an absolute
    ``tol`` below 1e-4 of its ulp (``E(beta,beta; z) >= 1/Gamma(beta) > 1``).
    That equals bit for bit the maximum over integer ``lam <= 400`` crossed
    with 201 uniform times in [0, a], the grid whose calibration set the
    headroom.  Requires ``beta`` in (1, 2): for ``beta <= 1`` the ratio is
    unbounded as ``t -> 0``.
    """
    if not (1.0 < beta < 2.0):
        raise DomainError(f"growth ratios require beta in (1, 2), got {beta}")
    if not 0.0 < a < math.inf or beta * math.log(a) > 709.0:  # a**beta in range
        raise DomainError(f"horizon a must be finite and positive, with a**beta < e^709, got {a}")
    t = np.full(1, a, dtype=float)  # numpy pow and exp, which the grid maximum used
    e, _ = ml_values(beta, beta, t**beta, tol=_GROWTH_TOL)
    ratio = t ** (beta - 1.0) * e * np.exp(-t)
    return GrowthConstants(float(ratio[0]) * _GROWTH_HEADROOM)
