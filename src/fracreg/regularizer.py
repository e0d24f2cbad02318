"""Fourier-truncation regularization and theoretical error-bound evaluators.

The regularized solution keeps a mode exactly when its eigenvalue does not
exceed the cutoff ``B_N`` (boundary inclusive) and solves the same mild
integral equation as the forward map on the retained set; dropped modes are
identically zero.  The a-priori parameter rule

    N(eps)  = floor(eps^(-2b / (2m+1)))
    B_N     = ((m / (k a)) * log N)^beta

links the observation count to the cutoff.  The error-bound evaluators
implement the convergence error bounds with their undetermined constants
``C1``, ``D1`` supplied by the caller (the experiment harness fits them to
the exact expected error of its linear problem).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .mild_solver import FourierField, InitialData, ProblemSpec, solve_mild
from .noise_model import NoisyObservation
from .spectral import EigenSystem


@dataclass(frozen=True)
class RegConfig:
    """The parameter rule's output for one noise level.

    ``P_retained`` counts the eigenvalues not exceeding ``B_N``; ``lam_N``
    is the N-th eigenvalue, which the error bounds need.
    """

    B_N: float
    N: int
    P_retained: int
    lam_N: float

    def __post_init__(self):
        if not self.B_N >= 0 or not math.isfinite(self.B_N):
            raise DomainError("B_N must be finite and >= 0")
        if self.N < 1 or self.P_retained < 0:
            raise DomainError("N must be >= 1 and P_retained >= 0")


@dataclass(frozen=True)
class RateParams:
    """Knobs of the a-priori rule and of the rate prediction.

    ``b`` scales the observation count, ``m`` the cutoff growth, ``k`` is
    the Lipschitz-constant slot of the rule, ``gamma`` the data smoothness,
    ``d`` the nominal spatial dimension driving ``lam_N ~ N^(2/d)``, and
    ``mu`` the solution source-condition strength.  The rule requires
    ``0 < m < 2 gamma / d``.
    """

    b: float
    m: float
    k: float
    gamma: float
    d: int
    mu: float

    def __post_init__(self):
        values = (self.b, self.m, self.k, self.gamma, self.mu)
        if not all(math.isfinite(v) for v in values):
            raise DomainError(f"rate parameters b, m, k, gamma, mu must be finite, got {values}")
        if not (self.b > 0 and self.k > 0 and self.mu > 0):
            raise DomainError("b, k, mu must be positive")
        if self.gamma < 0:
            raise DomainError("gamma must be >= 0")
        if type(self.d) is not int or self.d < 1:
            raise DomainError(f"d must be a positive integer, got {self.d!r}")
        if not (0.0 < self.m < 2.0 * self.gamma / self.d):
            raise DomainError(
                f"m must lie in (0, 2*gamma/d) = (0, {2.0 * self.gamma / self.d}), got {self.m}"
            )


@contextmanager
def _representable(what: str):
    """Turn float overflow or division by zero inside the block into DomainError."""
    try:
        yield
    except (OverflowError, ZeroDivisionError) as exc:
        raise DomainError(f"{what} is not representable: {exc}") from None


def _bound_sum(noise: float, bias: float, trunc: float) -> float:
    """``noise + bias + trunc``, after checking each term is finite and >= 0."""
    for v in (noise, bias, trunc):
        if not 0.0 <= v < math.inf:
            raise DomainError(f"bound terms must be finite and nonnegative, got {v!r}")
    return noise + bias + trunc


def retained_count(eig: EigenSystem, B_N: float) -> int:
    """Number of leading eigenvalues with ``lam_p <= B_N`` (exact comparison)."""
    return int(np.searchsorted(eig.eigenvalues, B_N, side="right"))


def choose_params(
    eps: float,
    rp: RateParams,
    a: float,
    beta: float,
    eig: EigenSystem,
) -> RegConfig:
    """A-priori parameter choice for noise level ``eps``.

    Raises :class:`DomainError` when ``eps`` is too large for the rule to
    produce at least one observation, or when ``eig`` does not reach N: the
    rule reads the N-th stored eigenvalue as ``lam_N``.  Whether the choice
    also satisfies the vanishing-term admissibility conditions depends on
    ``(b, m, k)``; :func:`admissibility_scan` evaluates those limits along
    an eps grid.
    """
    if not (0.0 < eps < 1.0):
        raise DomainError(f"eps must lie in (0, 1), got {eps}")
    if a <= 0 or not (0 < beta < 2):
        raise DomainError("need a > 0 and beta in (0, 2)")
    with _representable(f"the rule at eps={eps}, b={rp.b}, m={rp.m}, k={rp.k}, a={a}"):
        N = math.floor(eps ** (-2.0 * rp.b / (2.0 * rp.m + 1.0)))
        if N < 1:
            raise DomainError(f"eps={eps} gives no observations under the rule")
        B_N = ((rp.m / (rp.k * a)) * math.log(N)) ** beta
    return RegConfig(B_N=B_N, N=N, P_retained=retained_count(eig, B_N), lam_N=eig.lam(N))


def admissibility_scan(
    rp: RateParams, a: float, beta: float, eig: EigenSystem, eps_grid
) -> dict:
    """Evaluate the three admissibility quantities along a decreasing eps grid.

    Returns the cutoff sequence, ``exp(2 a B^(1/beta)) eps^2 N`` and
    ``exp(2 a B^(1/beta)) / lam_N^(2 gamma)`` together with trend flags.
    The rule does not guarantee the noise limit vanishes for every
    ``(b, m, k)`` (at ``b = 1, k = 1`` it is exactly borderline), so the
    scan reports rather than asserts.
    """
    eps_arr = np.asarray(eps_grid, dtype=float)
    if eps_arr.ndim != 1 or eps_arr.size < 2 or np.any(np.diff(eps_arr) >= 0):
        raise DomainError("eps_grid must be strictly decreasing with >= 2 points")
    Bs, noise_q, bias_q, Ns = [], [], [], []
    for eps in eps_arr:
        cfg = choose_params(float(eps), rp, a, beta, eig)
        with _representable("the admissibility scan"):
            amp = math.exp(2.0 * a * cfg.B_N ** (1.0 / beta))
            noise_q.append(amp * eps * eps * cfg.N)
            bias_q.append(amp / cfg.lam_N ** (2.0 * rp.gamma))
        Bs.append(cfg.B_N)
        Ns.append(cfg.N)
    Bs = np.asarray(Bs)
    noise_q = np.asarray(noise_q)
    bias_q = np.asarray(bias_q)
    if not (np.all(np.isfinite(noise_q)) and np.all(np.isfinite(bias_q))):
        raise DomainError("admissibility quantities exceed floating-point range")
    return {
        "eps": eps_arr.tolist(),
        "N": Ns,
        "B_N": Bs.tolist(),
        "noise_quantity": noise_q.tolist(),
        "bias_quantity": bias_q.tolist(),
        "B_increasing": bool(np.all(np.diff(Bs) > 0)),
        "noise_vanishing": bool(
            np.all(np.diff(noise_q) <= 1e-12 * noise_q[:-1]) and noise_q[-1] < noise_q[0]
        ),
        "bias_vanishing": bool(
            np.all(np.diff(bias_q) <= 1e-12 * bias_q[:-1]) and bias_q[-1] < bias_q[0]
        ),
    }


def regularized_solve(
    spec: ProblemSpec, obs: NoisyObservation, cfg: RegConfig, M: int, rows=None
) -> FourierField:
    """Fixed point of the spectrally truncated integral map on the M-step grid.

    Retained modes start from the observed noisy coefficients and are
    solved by one :func:`solve_mild` call, at every grid row or at the
    ``rows`` it names.  The field holds the retained modes only,
    ``P_retained`` columns (zero-width when no mode is retained): every mode
    with ``lam_p > B_N`` is zero, and a caller that compares against a wider
    field pads with :func:`spectral.pad`.  An observation of R replicates,
    (R, N) blocks, gives the R fields at once, as an (R, M+1, P_retained)
    field, or (R, len(rows), P_retained).
    """
    if cfg.N != obs.N:
        raise DomainError(f"config expects N={cfg.N} but observation has N={obs.N}")
    return solve_mild(spec, InitialData(obs.obs0, obs.obs1), cfg.P_retained, M, rows)


def theory_bound_l2(
    rp: RateParams,
    cfg: RegConfig,
    t: float,
    eps: float,
    M0: float,
    M_source: float,
    C1: float,
    D1: float,
    a: float,
    beta: float,
) -> float:
    """Right-hand side of the L2 convergence bound: noise + bias + truncation.

    ``M0`` bounds the H^{2 gamma} size of the initial pair and ``M_source``
    the exponentially weighted spectral sum of the solution.  The
    truncation weight is ``B_N^(-mu)``, the Gronwall output.
    """
    if not (0.0 <= t <= a):
        raise DomainError("t must lie in [0, a]")
    if min(eps, M0, M_source, C1, D1) < 0:
        raise DomainError("inputs must be nonnegative")
    with _representable("the L2 bound"):
        x = cfg.B_N ** (1.0 / beta)
        amp = math.exp(2.0 * x * t)
        noise = 2.0 * C1 * amp * 2.0 * eps * eps * cfg.N
        bias = 2.0 * C1 * amp * M0 / cfg.lam_N ** (2.0 * rp.gamma)
        trunc = 2.0 * D1 * math.exp(-2.0 * (a - t) * x) * cfg.B_N ** (-rp.mu) * M_source**2
    return _bound_sum(noise, bias, trunc)


def theory_bound_hq(
    rp: RateParams,
    cfg: RegConfig,
    t: float,
    r: float,
    q: float,
    eps: float,
    M0: float,
    M1: float,
    C1: float,
    D1: float,
    a: float,
    beta: float,
) -> float:
    """Right-hand side of the H^q convergence bound: noise + bias + truncation.

    ``M1`` bounds the ``exp(2(a-t+r) lam^(1/beta))``-weighted spectral sum
    of the solution for the given margin ``r > 0``.
    """
    if not (0.0 <= t <= a):
        raise DomainError("t must lie in [0, a]")
    if q < 0 or not r > 0:
        raise DomainError("need q >= 0 and r > 0")
    with _representable("the H^q bound"):
        x = cfg.B_N ** (1.0 / beta)
        bq = cfg.B_N**q
        amp = bq * math.exp(2.0 * x * t)
        noise = 4.0 * C1 * amp * 2.0 * eps * eps * cfg.N
        bias = 4.0 * C1 * amp * M0 / cfg.lam_N ** (2.0 * rp.gamma)
        trunc = M1**2 * (2.0 * D1 + 1.0) * bq * math.exp(-2.0 * (a - t + r) * x)
    return _bound_sum(noise, bias, trunc)
