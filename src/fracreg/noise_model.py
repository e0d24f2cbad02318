"""Gaussian white-noise observations and the Monte-Carlo driver.

Observed coefficients follow ``obs[p] = <u, phi_p> + eps * xi_p`` with
``xi_p`` i.i.d. standard normal.  Randomness comes from counter-based
Philox4x64-10 (Salmon, Moraes, Dror & Shaw, "Parallel random numbers: as
easy as 1, 2, 3", SC'11), keyed by ``(seed, stream)`` with the experiment
seed, and turned into normals by the Box-Muller transform (Box & Muller,
*Ann. Math. Statist.* 29, 1958).  The replicate and the noise level are
counter words: block b of replicate r at level l runs the counter
``(b + 1, r, l, 0)``, so its words are those
``numpy.random.Philox(key=(seed, stream), counter=(0, r, l, 0))
.random_raw()`` draws.  Every replicate is an independent substream that
can be regenerated in any order, bit for bit, and no seed is hashed.  The
port is numpy array arithmetic evaluated over every lane at once;
``numpy.random`` is never imported.  The normals rest on numpy's float64
``log``, ``sin`` and ``cos``, as the Mittag-Leffler values rest on
``np.exp``.

:func:`monte_carlo` is the one replicate loop.  It hands the sampler the
replicate indices ``0 .. R-1`` as one ``uint64`` array; the sampler returns
one length-R array per quantity, which it reduces to a mean and a standard
error.  Given an array of replicate indices, :func:`observe` draws every
replicate's streams in one Philox evaluation and stacks them into ``(R, N)``
blocks, whose row r equals the observation of replicate ``r`` drawn alone,
so the solver and the error reduction run once per noise level for all
replicates.  Given an array of noise levels too, with one ``eps`` each, it
draws a whole sweep in that one evaluation, one ``(R, N)`` block per level.

The default observation model draws independent noise for the initial value
and the initial velocity; ``shared_noise=True`` reproduces the reading in
which one white noise drives both.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, check_budget
from .spectral import EigenSystem, as_coeffs, hq_norm, pad

_TWO53 = float(1 << 53)
_MASK32 = 0xFFFFFFFF

# Philox4x64 multipliers and Weyl key increments, one row per counter word
# pair (0, 2), shaped to broadcast over (2, streams, levels, replicates, blocks)
# lanes.
_LANES = (2, 1, 1, 1, 1)
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], np.uint64).reshape(_LANES)
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & _MASK32, _PHILOX_M >> 32
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], np.uint64).reshape(_LANES)
_PHILOX_ROUNDS = 10

# Desk-scale limit on the replicates of one Monte-Carlo run: it bounds what
# monte_carlo holds and names the count before the sampler runs, whose arrays
# are each checked against errors.BUDGET where they are sized.
_REPLICATES_MAX = 1 << 16


def _word64(value, name: str) -> int:
    """``value`` as a Python int, or a DomainError naming it unless it is an
    integer in [0, 2^64), one Philox word."""
    try:
        n = operator.index(value)
    except TypeError:
        n = -1
    if n < 0:
        raise DomainError(f"{name} must be a non-negative integer, got {value!r}")
    if n >= 1 << 64:
        raise DomainError(f"{name} must lie in [0, 2^64), got {value!r}")
    return n


def _words64(values, name: str) -> np.ndarray:
    """Each integer of ``values``, in [0, 2^64), as a uint64 array of its shape.

    An unsigned or non-negative signed integer array is used as it is; any
    other input is checked value by value.
    """
    a = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)
    if a.dtype.kind in "ub" or (a.dtype.kind == "i" and not (a < 0).any()):
        return a.astype(np.uint64)
    word = np.frompyfunc(lambda v: _word64(v, name), 1, 1)
    return np.array(word(a), dtype=np.uint64).reshape(a.shape)


def _philox_words(seed: int, stream: np.ndarray, replicate: np.ndarray, level,
                 blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """Raw Philox4x64-10 words of every key ``(seed, stream[s])`` at the
    counter ``(b + 1, replicate[r], level[l], 0)``; ``level`` is one word or
    an array of them.  numpy increments the counter before its first block,
    so lane ``b`` runs block ``b + 1``.

    Returns the halves ``(X, Y)``, each ``(2, S, L, R, blocks)``: ``X[h, s,
    l, r, b]`` is word ``4b + 2h`` of lane ``(s, l, r)`` and ``Y[h, s, l, r,
    b]`` word ``4b + 2h + 1``.  Each round's two 64x64 -> 128-bit multiplies,
    done in 32-bit halves, run over both halves of ``X`` at once, in place.
    """
    level = np.asarray(level, np.uint64)
    K = np.stack(np.broadcast_arrays(np.uint64(seed), stream[:, None, None, None]))
    X = np.zeros((2, stream.size, level.size, replicate.size, blocks), np.uint64)
    X[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    X[1] = level.reshape(-1, 1, 1)
    Y, w, lo, hi = (np.zeros_like(X) for _ in range(4))
    Y[0] = replicate[:, None]
    for _ in range(_PHILOX_ROUNDS):
        # hi = the high words of X * M: w = x_hi m_lo + (x_lo m_lo >> 32) < 2^64,
        # then hi = x_hi m_hi + (w >> 32) + (((w & mask) + x_lo m_hi) >> 32)
        np.bitwise_and(X, _MASK32, out=w)
        w *= _PHILOX_M_LO
        w >>= 32
        np.right_shift(X, 32, out=hi)
        hi *= _PHILOX_M_LO
        w += hi
        np.bitwise_and(w, _MASK32, out=lo)
        w >>= 32
        np.bitwise_and(X, _MASK32, out=hi)
        hi *= _PHILOX_M_HI
        lo += hi
        lo >>= 32
        w += lo
        np.right_shift(X, 32, out=hi)
        hi *= _PHILOX_M_HI
        hi += w
        X *= _PHILOX_M  # the low words
        Y ^= hi[::-1]
        Y ^= K
        X, Y = Y, X[::-1]
        K = K + _PHILOX_W
    return X, Y


def _box_muller(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Standard normals of the word halves of :func:`_philox_words`, by Box-Muller.

    The top 53 bits k of each word give ``u = (k + 0.5) / 2^53`` in (0, 1];
    ``x[h, ..., b]`` gives the radius ``sqrt(-2 log u)`` and ``y[h, ..., b]``
    the angle ``2 pi u`` of normals ``4b + 2h`` and ``4b + 2h + 1`` along the
    result's last axis, ``r cos`` and ``r sin`` of it.
    """
    radius = np.sqrt(-2.0 * np.log(((x >> 11).astype(np.float64) + 0.5) / _TWO53))
    angle = 2.0 * np.pi * (((y >> 11).astype(np.float64) + 0.5) / _TWO53)
    z = np.empty(x.shape[1:] + (2, 2))
    z[..., 0] = np.moveaxis(np.cos(angle), 0, -1)
    z[..., 1] = np.moveaxis(np.sin(angle, out=angle), 0, -1)
    z *= np.moveaxis(radius, 0, -1)[..., None]
    return z.reshape(x.shape[1:-1] + (-1,))


def standard_normals(seed, stream, n: int, level=0, replicate=0) -> np.ndarray:
    """n standard normals from each substream of key ``(seed, stream)`` at
    counter words ``(replicate, level)``.

    ``seed`` is one non-negative integer, and ``stream``, ``level`` and
    ``replicate`` each one or an array (or sequence) of them; each must
    lie in [0, 2^64), one Philox word, so no two values share a substream.
    The result has shape ``shape(stream) + shape(level) + shape(replicate)
    + (n,)``: one of each gives an (n,) array, R replicates an (R, n) block
    whose row r is the draw of ``replicate[r]`` alone, and L levels L such
    blocks, block l drawn at ``level[l]`` alone.  Every (stream, level,
    replicate) triple is drawn in one Philox evaluation.  The top 53 bits
    of each raw Philox word (raw words, unlike ``Generator`` methods, keep
    their stream across numpy releases) go through :func:`_box_muller`, two
    words to a pair of normals.  ``4 ceil(n / 4)`` words are drawn and the
    first n normals kept, so a draw of n normals is a prefix of any longer
    draw; the draw count per sample is fixed (unlike rejection samplers),
    which is what keeps substreams aligned.  A draw past the desk-scale
    budget is refused before any word.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    seed = _word64(seed, "seed")
    s, l, r = (_words64(v, name) for v, name in
               ((stream, "stream"), (level, "level"), (replicate, "replicate")))
    blocks = -(-n // 4)
    peak = 4 * s.size * l.size * r.size * 4 * blocks  # traced: 3.5 times the words
    check_budget(peak, f"a draw of {s.size} streams x {l.size} levels x {r.size} replicates x "
                       f"{n} normals (peak {peak} doubles)")
    z = _box_muller(*_philox_words(seed, s.ravel(), r.ravel(), l, blocks))
    return z[..., :n].reshape(s.shape + l.shape + r.shape + (n,))


@dataclass(frozen=True)
class NoisyObservation:
    """The 2N observed noisy coefficients.

    ``obs0`` and ``obs1`` are (N,) vectors, (R, N) blocks holding one
    replicate per row, or (L, R, N) sweeps holding one block per noise level.
    """

    obs0: np.ndarray
    obs1: np.ndarray
    shared_noise: bool = False

    def __post_init__(self):
        o0 = np.asarray(self.obs0, dtype=float)
        o1 = np.asarray(self.obs1, dtype=float)
        if not (np.all(np.isfinite(o0)) and np.all(np.isfinite(o1))):
            raise DomainError("coefficients must be finite")
        object.__setattr__(self, "obs0", o0)
        object.__setattr__(self, "obs1", o1)

    @property
    def N(self) -> int:
        """The observed modes per field, the width of ``obs0``."""
        return self.obs0.shape[-1]


def observe(
    u0, u1, eps, N: int, seed: int, shared_noise: bool = False, level=0, replicate=0
) -> NoisyObservation:
    """Draw the N noisy coefficients of (u0, u1) from the seeded stream.

    Streams 0 and 1 of ``seed`` carry the value and velocity noise; with
    ``shared_noise=True`` stream 0 drives both fields.  ``level`` and
    ``replicate`` are the counter words of :func:`standard_normals`; an array
    of R replicate indices gives (R, N) blocks, row r drawn for
    ``replicate[r]`` alone.  An array of L levels, with an array of L noise
    levels ``eps``, gives (L, R, N) sweeps, block l drawn at ``level[l]``
    with ``eps[l]`` alone; a level that needs fewer observations keeps the
    first of its block, which are its own draw of that many.
    """
    e = np.asarray(eps, dtype=float)
    if e.shape != np.shape(level):
        raise DomainError(f"need one eps per noise level, got eps {eps!r} for level {level!r}")
    if not np.all(e > 0):
        raise DomainError("eps must be positive")
    if N < 1:
        raise DomainError("N must be >= 1")
    c0 = pad(as_coeffs(u0), N)
    c1 = pad(as_coeffs(u1), N)
    xi = standard_normals(seed, (0,) if shared_noise else (0, 1), N, level, replicate)
    e = e.reshape(e.shape + (1,) * (xi.ndim - 1 - e.ndim))
    return NoisyObservation(c0 + e * xi[0], c1 + e * xi[-1], shared_noise)


def monte_carlo(
    sample: Callable[[np.ndarray], Sequence[np.ndarray]], replicates: int
) -> list[tuple[float, float]]:
    """Monte-Carlo ``(mean, standard error)`` of each quantity ``sample`` returns.

    ``sample`` gets the replicate indices ``0 .. R-1``, in order, as one
    uint64 array, and returns one length-R array per quantity, entry r
    belonging to replicate r; a sampler that draws replicate r from counter
    word r (see :func:`observe`) gives the same estimates on every run.
    Each quantity is reduced as its own contiguous array: numpy sums that
    pairwise, but sums an ``(R, k)`` block along axis 0 row by row, with
    different rounding.  A mean or standard error that is not finite (a
    replicate value past about 1e154 overflows the variance) is a
    DomainError.  ``replicates`` is at most ``2**16``; a larger count is
    refused before any allocation.
    """
    if replicates < 2:
        raise DomainError("replicates must be >= 2")
    if replicates > _REPLICATES_MAX:
        raise DomainError(f"replicates must be at most {_REPLICATES_MAX}, the desk-scale limit, "
                          f"got {replicates}")
    values = sample(np.arange(replicates, dtype=np.uint64))
    root = math.sqrt(replicates)
    estimates = []
    for i, v in enumerate(values):
        v = np.ascontiguousarray(v, dtype=float)
        if v.shape != (replicates,):
            raise DomainError(f"sample must return {replicates} values per quantity, got {v.shape}")
        with np.errstate(over="ignore", invalid="ignore"):  # surfaces as the DomainError below
            mean, se = float(np.mean(v)), float(np.std(v, ddof=1) / root)
        if not (math.isfinite(mean) and math.isfinite(se)):
            raise DomainError(f"Monte-Carlo estimate of quantity {i} is not finite: "
                              f"mean {mean!r}, standard error {se!r}")
        estimates.append((mean, se))
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
    norm or the eigenvalue weight is not representable, and when the
    analytic MISE itself is not.
    """
    if gamma < 0:
        raise DomainError("gamma must be >= 0")
    if not eps > 0 or N < 1:
        raise DomainError("need eps > 0 and N >= 1")
    c = as_coeffs(u0)
    with np.errstate(over="ignore"):  # overflow surfaces as the DomainError below
        tail = float(np.sum(c[N:] ** 2)) if c.size > N else 0.0
    analytic = eps * eps * N + tail
    if not math.isfinite(analytic):
        raise DomainError(f"data MISE eps^2 N + tail at eps={eps!r} exceeds floating-point range")
    lam_n = eig.lam(N)
    smooth = hq_norm(c, 2.0 * gamma, eig)
    bound = eps * eps * N + lam_n ** (-2.0 * gamma) * smooth * smooth
    if not analytic <= bound * (1.0 + 1e-12) + 1e-30:
        raise DomainError(
            f"data MISE {analytic!r} exceeds its variance-bias bound {bound!r} "
            f"(gamma={gamma} is beyond floating-point range)"
        )
    return analytic, bound
