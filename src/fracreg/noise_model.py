"""Gaussian white-noise observations and the Monte-Carlo driver.

Observed coefficients follow ``obs[p] = <u, phi_p> + eps * xi_p`` with
``xi_p`` i.i.d. standard normal.  Randomness comes from counter-based
Philox streams keyed by ``(seed, stream)`` and sampled through the inverse
normal CDF, so every replicate is an independent substream that can be
regenerated in any order, bit for bit.  :func:`monte_carlo` is the one
replicate loop: it seeds every replicate and reduces what each returns to a
mean and a standard error.

The default observation model draws independent noise for the initial value
and the initial velocity; ``shared_noise=True`` reproduces the reading in
which one white noise drives both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtri

from .errors import DomainError
from .spectral import EigenSystem, as_coeffs, hq_norm, pad

_TWO53 = float(1 << 53)


def _stream(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed % (1 << 64), stream % (1 << 64)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def standard_normals(seed: int, stream: int, n: int) -> np.ndarray:
    """n standard normals from substream ``(seed, stream)`` via inverse CDF.

    The open-interval uniform ``(k + 0.5) / 2^53`` keeps ndtri finite and
    makes the draw count per sample fixed (unlike rejection samplers), which
    is what keeps substreams aligned.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    gen = _stream(seed, stream)
    u = (gen.integers(0, 1 << 53, size=n).astype(np.float64) + 0.5) / _TWO53
    return ndtri(u)


def replicate_seed(seed: int, r: int) -> int:
    """Derived seed of replicate ``r``; order-insensitive and collision-safe."""
    if r < 0:
        raise DomainError("replicate index must be >= 0")
    return int(np.random.SeedSequence((seed, r)).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class NoisyObservation:
    """The 2N observed noisy coefficients plus the noise level and stream seed."""

    eps: float
    N: int
    obs0: np.ndarray
    obs1: np.ndarray
    seed: int
    shared_noise: bool = False

    def __post_init__(self):
        if not self.eps > 0:
            raise DomainError("eps must be positive")
        if self.N < 1:
            raise DomainError("N must be >= 1")
        o0 = as_coeffs(self.obs0)
        o1 = as_coeffs(self.obs1)
        if o0.size != self.N or o1.size != self.N:
            raise DomainError("need exactly N observed coefficients per field")
        object.__setattr__(self, "obs0", o0)
        object.__setattr__(self, "obs1", o1)


def observe(u0, u1, eps: float, N: int, seed: int, shared_noise: bool = False) -> NoisyObservation:
    """Draw the N noisy coefficients of (u0, u1) from the seeded stream.

    Streams 0 and 1 of ``seed`` carry the value and velocity noise; with
    ``shared_noise=True`` stream 0 drives both fields.
    """
    if not eps > 0:
        raise DomainError("eps must be positive")
    if N < 1:
        raise DomainError("N must be >= 1")
    c0 = pad(as_coeffs(u0), N)
    c1 = pad(as_coeffs(u1), N)
    xi0 = standard_normals(seed, 0, N)
    xi1 = xi0 if shared_noise else standard_normals(seed, 1, N)
    return NoisyObservation(eps, N, c0 + eps * xi0, c1 + eps * xi1, seed, shared_noise)


def monte_carlo(
    sample: Callable[[int], tuple[float, ...]], replicates: int, seed: int
) -> list[tuple[float, float]]:
    """Monte-Carlo ``(mean, standard error)`` of each quantity ``sample`` returns.

    Replicate ``r`` calls ``sample(replicate_seed(seed, r))``, which returns
    a tuple of floats, in a fixed loop order, so identical seeds give
    identical estimates.  Each quantity is reduced as its own contiguous
    array: numpy sums that pairwise, but sums an ``(R, k)`` block along
    axis 0 row by row, with different rounding.
    """
    if replicates < 2:
        raise DomainError("replicates must be >= 2")
    values = np.array([sample(replicate_seed(seed, r)) for r in range(replicates)], dtype=float)
    root = math.sqrt(replicates)
    return [(float(np.mean(v)), float(np.std(v, ddof=1) / root)) for v in values.T.copy()]


def mise_bound_check(
    u0, gamma: float, eps: float, N: int, eig: EigenSystem
) -> tuple[float, float]:
    """Exact expected data MISE next to its variance-plus-bias bound.

    Returns ``(analytic_mise, variance_bias_bound)`` where

    * ``analytic_mise = eps^2 N + sum_{p > N} c_p^2`` (an identity, not an
      estimate), and
    * ``variance_bias_bound = eps^2 N + lam_N^(-2 gamma) * ||u0||_{H^{2 gamma}}^2``.

    The bound can never be violated when the smoothness norm is finite;
    :class:`DomainError` is raised if it is, which happens only when the
    norm or the eigenvalue weight is not representable.
    """
    if gamma < 0:
        raise DomainError("gamma must be >= 0")
    if not eps > 0 or N < 1:
        raise DomainError("need eps > 0 and N >= 1")
    c = as_coeffs(u0)
    tail = float(np.sum(c[N:] ** 2)) if c.size > N else 0.0
    analytic = eps * eps * N + tail
    lam_n = eig.lam(N)
    smooth = hq_norm(c, 2.0 * gamma, eig)
    bound = eps * eps * N + lam_n ** (-2.0 * gamma) * smooth * smooth
    if not analytic <= bound * (1.0 + 1e-12) + 1e-30:
        raise DomainError(
            f"data MISE {analytic!r} exceeds its variance-bias bound {bound!r} "
            f"(gamma={gamma} is beyond floating-point range)"
        )
    return analytic, bound
