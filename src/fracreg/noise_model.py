"""Gaussian white-noise observations and the Monte-Carlo driver.

Observed coefficients follow ``obs[p] = <u, phi_p> + eps * xi_p`` with
``xi_p`` i.i.d. standard normal.  Randomness comes from counter-based
Philox streams keyed by ``(seed, stream)`` and sampled through the inverse
normal CDF, so every replicate is an independent substream that can be
regenerated in any order, bit for bit.  That CDF is a port of Cephes
``ndtri`` (Moshier, *Methods and Programs for Mathematical Functions*,
1989) in :mod:`fracreg._special`; it takes its logarithms from libm through
``math.log``, never numpy's ``np.log``, which rounds a few inputs in a
million differently, and so returns the bits of ``scipy.special.ndtri``.

:func:`monte_carlo` is the one replicate loop.  It derives every
replicate's seed and hands all R of them to the sampler at once; the
sampler returns one length-R array per quantity, which the driver reduces
to a mean and a standard error.  Given a sequence of seeds, :func:`observe`
draws each replicate's own streams and stacks them into ``(R, N)`` blocks,
whose row r equals the observation drawn from seed r alone, so the solver
and the error reduction run once per noise level for all replicates.

The default observation model draws independent noise for the initial value
and the initial velocity; ``shared_noise=True`` reproduces the reading in
which one white noise drives both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.random import Philox, SeedSequence  # loads numpy.random at import, not at the first draw

from ._special import ndtri
from .errors import DomainError
from .spectral import EigenSystem, as_coeffs, hq_norm, pad

_TWO53 = float(1 << 53)
_BELOW_ONE = np.nextafter(1.0, 0.0)


def _normals_from_words(k: np.ndarray) -> np.ndarray:
    """Standard normals of 53-bit words ``k`` via the uniform ``(k + 0.5) / 2^53``.

    That uniform rounds to exactly 1.0 at ``k = 2^53 - 1``, alone of all
    words, so it is clamped to the largest double below 1; every other word
    keeps its bits.
    """
    return ndtri(np.minimum((k.astype(np.float64) + 0.5) / _TWO53, _BELOW_ONE))


def standard_normals(seed, stream: int, n: int) -> np.ndarray:
    """n standard normals from substream ``(seed, stream)`` via inverse CDF.

    ``seed`` is one seed, giving an (n,) array, or a sequence of R seeds,
    giving an (R, n) block whose row r is the draw of ``seed[r]`` alone.
    Each normal is the top 53 bits of one raw Philox word (raw words, unlike
    ``Generator`` methods, keep their stream across numpy releases) through
    :func:`_normals_from_words`, whose uniforms lie strictly inside (0, 1),
    so ndtri stays finite; the draw count per sample is fixed (unlike
    rejection samplers), which is what keeps substreams aligned.

    The streams share one Philox generator whose key, counter and buffer
    are reset for each, which draws what a fresh ``Philox(key=...)`` draws
    without reading OS entropy to seed it first.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    seeds = [seed] if np.ndim(seed) == 0 else seed
    bits = Philox(0)  # a fixed seed reads no OS entropy
    state = bits.state  # counter zero, buffer empty
    key = state["state"]["key"]
    key[1] = stream % (1 << 64)
    k = np.empty((len(seeds), n), dtype=np.uint64)
    for i, s in enumerate(seeds):
        key[0] = int(s) % (1 << 64)
        bits.state = state
        k[i] = bits.random_raw(n) >> 11
    z = _normals_from_words(k)
    return z if np.ndim(seed) else z[0]


def replicate_seed(seed: int, r: int) -> int:
    """Derived seed of replicate ``r``; order-insensitive and collision-safe."""
    if r < 0:
        raise DomainError("replicate index must be >= 0")
    return int(SeedSequence((seed, r)).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class NoisyObservation:
    """The 2N observed noisy coefficients.

    ``obs0`` and ``obs1`` are (N,) vectors, or (R, N) blocks holding one
    replicate per row.
    """

    N: int
    obs0: np.ndarray
    obs1: np.ndarray
    shared_noise: bool = False

    def __post_init__(self):
        if self.N < 1:
            raise DomainError("N must be >= 1")
        o0 = as_coeffs(self.obs0, rows=True)
        o1 = as_coeffs(self.obs1, rows=True)
        if o0.shape != o1.shape or o0.shape[-1] != self.N:
            raise DomainError("need exactly N observed coefficients per field")
        object.__setattr__(self, "obs0", o0)
        object.__setattr__(self, "obs1", o1)


def observe(
    u0, u1, eps: float, N: int, seed: int | Sequence[int], shared_noise: bool = False
) -> NoisyObservation:
    """Draw the N noisy coefficients of (u0, u1) from the seeded stream.

    Streams 0 and 1 of ``seed`` carry the value and velocity noise; with
    ``shared_noise=True`` stream 0 drives both fields.  A sequence of R
    seeds gives (R, N) blocks, row r drawn from ``seed[r]`` alone.
    """
    if not eps > 0:
        raise DomainError("eps must be positive")
    if N < 1:
        raise DomainError("N must be >= 1")
    c0 = pad(as_coeffs(u0), N)
    c1 = pad(as_coeffs(u1), N)
    xi0 = standard_normals(seed, 0, N)
    xi1 = xi0 if shared_noise else standard_normals(seed, 1, N)
    return NoisyObservation(N, c0 + eps * xi0, c1 + eps * xi1, shared_noise)


def monte_carlo(
    sample: Callable[[list[int]], Sequence[np.ndarray]], replicates: int, seed: int
) -> list[tuple[float, float]]:
    """Monte-Carlo ``(mean, standard error)`` of each quantity ``sample`` returns.

    ``sample`` gets the seeds ``replicate_seed(seed, r)`` of all replicates
    r, in order, and returns one length-R array per quantity, entry r
    belonging to replicate r; identical seeds give identical estimates.
    Each quantity is reduced as its own contiguous array: numpy sums that
    pairwise, but sums an ``(R, k)`` block along axis 0 row by row, with
    different rounding.
    """
    if replicates < 2:
        raise DomainError("replicates must be >= 2")
    values = sample([replicate_seed(seed, r) for r in range(replicates)])
    root = math.sqrt(replicates)
    estimates = []
    for v in values:
        v = np.ascontiguousarray(v, dtype=float)
        if v.shape != (replicates,):
            raise DomainError(f"sample must return {replicates} values per quantity, got {v.shape}")
        estimates.append((float(np.mean(v)), float(np.std(v, ddof=1) / root)))
    return estimates


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
