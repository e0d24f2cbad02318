"""Independent high-precision references used only by the tests.

Everything here is deliberately dumb and slow: straight series summation in
mpmath working precision, adaptive quadrature, and a dense grid scan.  None
of it shares code with the package under test.  The double-precision
references are plain forms: the Mittag-Leffler series that tests its full
width every term, which the package's series must match bit for bit, and
the discrete C([0,a]; L2) norm of a whole field, which the solver reads
from quadratic forms without forming the field.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np


def ml_reference(beta: float, gamma: float, z: float, dps: int = 60) -> float:
    """Mittag-Leffler value by raw series summation at high precision."""
    with mp.workdps(dps):
        b, g, zz = mp.mpf(beta), mp.mpf(gamma), mp.mpf(z)
        s = mp.mpf(0)
        k = 0
        while True:
            t = zz**k / mp.gamma(b * k + g)
            s += t
            if k > 8 and abs(t) < abs(s) * mp.mpf(10) ** (-dps + 8):
                break
            k += 1
            if k > 100_000:
                raise RuntimeError("oracle series did not terminate")
        return float(s)


def volterra_reference(beta: float, lam: float, t: float, g, dps: int = 30) -> float:
    """Adaptive quadrature of int_0^t (t-eta)^(b-1) E(b,b; lam (t-eta)^b) g(eta) deta."""
    with mp.workdps(dps):
        b, L, T = mp.mpf(beta), mp.mpf(lam), mp.mpf(t)

        def integrand(eta):
            s = T - eta
            if s <= 0:
                return mp.mpf(0)
            zz = L * s**b
            acc = mp.mpf(0)
            k = 0
            while True:
                term = zz**k / mp.gamma(b * k + b)
                acc += term
                if k > 8 and abs(term) < abs(acc) * mp.mpf(10) ** (-dps + 6):
                    break
                k += 1
            return s ** (b - 1) * acc * mp.mpf(g(float(eta)))

        return float(mp.quad(integrand, [0, T]))


def kernel_primitive_reference(beta: float, lam: float, s: float, dps: int = 40) -> float:
    """Adaptive quadrature of the Volterra kernel tau^(beta-1) E(beta,beta; lam tau^beta)."""
    with mp.workdps(dps):
        b, L = mp.mpf(beta), mp.mpf(lam)

        def kernel(tau):
            if tau <= 0:
                return mp.mpf(0)
            acc = mp.mpf(0)
            k = 0
            zz = L * tau**b
            while True:
                t = zz**k / mp.gamma(b * k + b)
                acc += t
                if k > 8 and abs(t) < abs(acc) * mp.mpf(10) ** (-dps + 6):
                    break
                k += 1
            return tau ** (b - 1) * acc

        return float(mp.quad(kernel, [0, mp.mpf(s)]))


def hq_envelope_max(
    q: float, coef: float, beta: float, B: float, z_max: float | None = None, n: int = 20001
) -> tuple[float, float]:
    """Grid-scan maximum of ``z^q exp(-coef z^(1/beta))`` over [B, z_max].

    Independent check of the envelope monotonicity: when the threshold
    holds, the returned argmax is ``B`` itself.
    """
    if z_max is None:
        z_max = max(4.0 * B, B + 100.0)
    z = np.linspace(B, z_max, n)
    vals = z**q * np.exp(-coef * z ** (1.0 / beta))
    i = int(np.argmax(vals))
    return float(vals[i]), float(z[i])


def ml_series_full_width(beta: float, gamma: float, z: np.ndarray, tol: float | None = None,
                         rel_tol: float = 1e-13, term_cap: int = 10_000):
    """Mittag-Leffler power series that forms the full-width tail bound at
    every term once the largest ratio is below 1: the reference for the
    package's series, which reads its largest lane first.

    Same arithmetic in the same order, so the two agree bit for bit in the
    values, the tail bounds and the stop term.  Raises ``ValueError`` with
    the package's ``DomainError`` text where the package raises.
    """
    total = np.full(z.size, math.exp(-math.lgamma(gamma)))
    comp = np.zeros(z.size)
    with np.errstate(divide="ignore"):
        lnz = np.log(z)
    lnz_max = float(lnz.max())
    z_max = float(z.max())

    def term(k, lg_k):
        if k * lnz_max - lg_k > 709.0:
            raise ValueError(f"series term {k} of E({beta},{gamma}) overflows at z={z_max!r}")
        return np.exp(k * lnz - lg_k)

    t_k = term(1, math.lgamma(beta + gamma))
    lg_next = math.lgamma(beta * 2 + gamma)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, term_cap):
            y = t_k - comp
            t = total + y
            comp = (t - total) - y
            total = t
            lg_k1, lg_next = lg_next, math.lgamma(beta * (k + 2) + gamma)
            c = math.exp(lg_k1 - lg_next)
            t_k = term(k + 1, lg_k1)
            if z_max * c < 1.0:
                tail = t_k / (1.0 - z * c)
                if not (tail > (rel_tol * total if tol is None else tol)).any():
                    return total, tail
    raise ValueError(f"series for E({beta},{gamma}) exceeded {term_cap} terms")


def max_row_l2(X: np.ndarray) -> np.ndarray:
    """Discrete C([0,a]; L2) norm of each (M+1, P) field in ``X``: the max over
    grid rows of the row L2 norm."""
    return np.sqrt(np.max(np.einsum("...ij,...ij->...i", X, X), axis=-1))
