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
bounded by a geometric series.  Each argument's summation stops at its own
first term where that bound is at most ``_REL_TOL`` times its running
total, which is a lower bound on the value, or at most an absolute ``tol``
when one is given.  An argument that rounding stops a term before a
smaller one is summed again without it.  So a value has the same bits
whatever the other arguments of its call, and a table over a grid has the
bits, row for row, of any table over part of that grid.

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
    takes the power series, summed until its own tail bound is at most
    ``_REL_TOL`` times its running total, or at most ``tol`` when given, and
    ``est_abs_errs`` holds that bound.  Each lane stops on its own, so it
    has the bits it has alone.  Raises :class:`DomainError` when a value is
    not representable, and when an argument is beyond the series' reach:
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
    """Power series with a rigorous geometric tail bound, each lane stopping on its own.

    Terms are summed with Kahan compensation.  A lane stops at its first
    term whose next ratio ``r = z*c`` is below 1 and whose tail bound
    ``t_{k+1} / (1 - r)`` is at most ``tol`` (absolute), or ``_REL_TOL``
    times its running total when ``tol`` is None: all terms are positive, so
    the running total is a lower bound on the value.  The lane keeps the
    total and the bound of that term, so it has the bits it has alone.

    The lanes are sorted by z, and lanes ``lo..n-1`` are summed, so the
    computed range shrinks from below as the small-z lanes finish.  IEEE
    multiplication by a positive scalar rounds monotonically, so ``r < 1``
    holds on a prefix ``lo..j-1`` of that range, found by a sorted search
    made exact, and only that prefix is tested.  Rounding can stop a lane a
    term before the one below it; such a lane is summed on with the others,
    and once every lane has stopped, all such lanes are summed again in one
    call of their own, which gives each the bits it has alone.  A term's
    exponent ``k*lnz - lg_k`` is tested on the largest lane.  Every work
    array is written in place, and two of them return the result.
    """
    try:
        first = math.exp(-math.lgamma(gamma))
    except OverflowError:
        raise DomainError(f"log Gamma({gamma}) exceeds floating-point range") from None
    if gamma + beta == gamma:  # every Gamma argument rounds to gamma: the ratios never fall
        raise DomainError(
            f"successive series terms of E({beta},{gamma}) cannot be resolved at gamma={gamma!r}"
        )
    n = z.size
    order = np.argsort(z, kind="stable")
    zs = z[order]
    with np.errstate(divide="ignore"):  # z = 0 gives -inf, so its every term is 0.0
        lnz = np.log(zs)
    total = np.full(n, first)
    comp = np.zeros(n)
    y = np.empty(n)
    t_k = np.empty(n)
    lo, j = 0, 0
    again = set()  # lanes that stopped above one still summing, to be summed again alone

    def term(k: int, lg_k: float) -> None:
        """Term ``k`` of lanes ``lo..n-1`` into ``t_k``, given ``lg_k = log Gamma(beta*k + gamma)``."""
        if k * lnz[-1] - lg_k > 709.0:  # exp overflows: z is beyond the series' reach
            raise DomainError(
                f"series term {k} of E({beta},{gamma}) overflows at z={float(zs[-1])!r}")
        a = t_k[lo:]
        np.multiply(lnz[lo:], k, out=a)
        a -= lg_k
        np.exp(a, out=a)

    term(1, math.lgamma(beta + gamma))
    lg_next = math.lgamma(beta * 2 + gamma)  # log Gamma(beta*(k+1) + gamma) at the loop's k
    # a total that overflows makes inf - inf in the Kahan update; the NaN
    # fails no "tail > bound" test, so its lane stops and ml_values reports
    # the nonfinite value
    with np.errstate(invalid="ignore"):
        for k in range(1, SERIES_TERM_CAP):
            s = slice(lo, n)  # the new total goes into the spent term's buffer
            np.subtract(t_k[s], comp[s], out=y[s])
            np.add(total[s], y[s], out=t_k[s])
            np.subtract(t_k[s], total[s], out=comp[s])
            comp[s] -= y[s]
            total, t_k = t_k, total

            lg_k1, lg_next = lg_next, math.lgamma(beta * (k + 2) + gamma)
            c = math.exp(lg_k1 - lg_next)
            term(k + 1, lg_k1)
            # lanes lo..j-1 have ratio z*c < 1: a sorted search, made exact
            if j < n:
                j += int(zs[j:].searchsorted(1.0 / c))
                while j < n and zs[j] * c < 1.0:
                    j += 1
            while j > lo and not zs[j - 1] * c < 1.0:
                j -= 1
            if j == lo:
                continue
            tail = zs[lo:j] * c
            np.subtract(1.0, tail, out=tail)
            np.divide(t_k[lo:j], tail, out=tail)
            going = tail > (_REL_TOL * total[lo:j] if tol is None else tol)
            # lanes lo..lo+f-1 stop, and any lane past them that does is summed again
            f = int(going.argmax())
            if not going[f]:
                f = going.size
            elif not going[f:].all():
                again.update((np.flatnonzero(~going[f:]) + (lo + f)).tolist())
            # below lo, no buffer is written again
            t_k[lo : lo + f] = total[lo : lo + f]
            y[lo : lo + f] = tail[:f]
            lo += f
            if lo == n:  # every lane has stopped: unsort into two work arrays now free
                if again:
                    i = np.array(sorted(again))
                    total[i], y[i] = _series(beta, gamma, zs[i], tol)
                comp[order] = total
                t_k[order] = y
                return comp, t_k
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
    Summed to the same ``tol``, the maximum over integer ``lam <= 400``
    crossed with 201 uniform times in [0, a], the grid whose calibration set
    the headroom, equals it bit for bit.  Requires ``beta`` in (1, 2): for
    ``beta <= 1`` the ratio is unbounded as ``t -> 0``.  A horizon past the
    series' reach is a one-line :class:`DomainError` naming ``a`` and ``beta``.
    """
    if not (1.0 < beta < 2.0):
        raise DomainError(f"growth ratios require beta in (1, 2), got {beta}")
    if not 0.0 < a < math.inf or beta * math.log(a) > 709.0:  # a**beta in range
        raise DomainError(f"horizon a must be finite and positive, with a**beta < e^709, got {a}")
    t = np.full(1, a, dtype=float)  # numpy pow and exp, which the grid maximum used
    try:
        e, _ = ml_values(beta, beta, t**beta, tol=_GROWTH_TOL)
    except DomainError as exc:
        raise DomainError(f"horizon a={a!r} at beta={beta!r} puts the growth constant beyond "
                          f"the Mittag-Leffler series: {exc}") from None
    ratio = t ** (beta - 1.0) * e * np.exp(-t)
    return GrowthConstants(float(ratio[0]) * _GROWTH_HEADROOM)
