"""Inverse normal CDF and log-Gamma for the package.

Ports of the Cephes routines ``ndtri`` and ``lgam`` (S. L. Moshier,
*Methods and Programs for Mathematical Functions*, 1989), with the same
coefficient tables and the same order of float64 operations, so ``ndtri``
and ``gammaln`` return the bits of the Cephes-based ``scipy.special``
functions.  Their logarithms come from libm (``math.log``): numpy's
vectorised ``np.log`` rounds a few inputs in a million differently.
"""

from __future__ import annotations

import math

import numpy as np

# ndtri: |y - 1/2| <= 1/2 - exp(-2), then z = sqrt(-2 log y) in [2, 8) and [8, 64)
_EXP_M2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)

# lgam: Stirling series above 13, a rational approximation on [2, 3) below
_LS2PI = 0.91893853320467274178
_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
      -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
      -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_C = (-3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
      -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)


def _polevl(x, coef):
    """Horner's rule, leading coefficient first."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """:func:`_polevl` with an implied leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _log(x: np.ndarray) -> np.ndarray:
    """Elementwise libm logarithm of a 1-D float array."""
    return np.fromiter(map(math.log, x.tolist()), float, x.size)


def ndtri(y) -> np.ndarray:
    """Inverse of the standard normal CDF, elementwise, for ``0 < y < 1``."""
    y = np.asarray(y, dtype=float)
    flat = y.ravel()
    out = np.empty_like(flat)
    upper = flat > 1.0 - _EXP_M2
    w = np.where(upper, 1.0 - flat, flat)
    mid = w > _EXP_M2
    v = w[mid] - 0.5
    v2 = v * v
    out[mid] = (v + v * (v2 * _polevl(v2, _P0) / _p1evl(v2, _Q0))) * _S2PI
    tail = ~mid
    x = np.sqrt(-2.0 * _log(w[tail]))
    x0 = x - _log(x) / x
    z = 1.0 / x
    x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    far = x >= 8.0  # y < exp(-32), which about 2^-45 of the noise uniforms reach
    if far.any():
        z = z[far]
        x1[far] = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - x1
    out[tail] = np.where(upper[tail], x, -x)
    return out.reshape(y.shape)


def _lgam_small(x: float) -> float:
    """Cephes ``lgam`` for ``0 < x < 13``: recurrence to [2, 3), then the rational."""
    z, p, u = 1.0, 0.0, x
    while u >= 3.0:
        p -= 1.0
        u = x + p
        z *= u
    while u < 2.0:
        z /= u
        p += 1.0
        u = x + p
    if u == 2.0:
        return math.log(z)
    x += p - 2.0
    return math.log(z) + x * _polevl(x, _B) / _p1evl(x, _C)


def gammaln(x) -> np.ndarray:
    """``log Gamma(x)`` elementwise for positive finite ``x``."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty_like(flat)
    small = flat < 13.0
    out[small] = [_lgam_small(v) for v in flat[small].tolist()]
    big = flat[~small]
    q = (big - 0.5) * _log(big) - big + _LS2PI
    with np.errstate(over="ignore"):  # only beyond 1e8, where the correction is dropped
        p = 1.0 / (big * big)
    near = ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
            + 0.0833333333333333333333)
    corr = np.where(big < 1000.0, _polevl(p, _A), near) / big
    out[~small] = np.where(big > 1.0e8, q, q + corr)
    return out.reshape(x.shape)

