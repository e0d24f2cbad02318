"""Experiment harnesses: instability demo, data-MISE validation, rate tables.

Three desk-scale experiments, each deterministic given its seed:

* ``illposed_demo``  solves the contraction-nonlinearity problem from
  noise-only data with the blow-up mode count
  ``N(eps) = floor((2/a * ln(1/eps))^(beta/2)) + 1`` and tabulates the
  expected input energy against the Monte-Carlo output sup-norm: input
  drops to zero while output grows like eps^-2.
* ``convergence_table``  measures the Monte-Carlo MISE of the truncation
  regularizer against a manufactured finite-mode truth across a decreasing
  eps grid, next to its exact expected value, the theoretical bound with
  constants fitted to that exact value, and the predicted rate order.
* ``mise_check``  validates the exact expectation identity
  ``E||data - truth||^2 = eps^2 N + tail`` and its variance-bias bound.

Reports serialize to CSV with the fixed column set
``eps,t,mise,std_err,theory_bound,loglog_slope`` and to JSON with the full
metadata; identical configurations produce byte-identical files.
"""

from __future__ import annotations

import io
import json
import math
import sys
from collections.abc import Mapping, Sequence
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .errors import DomainError
from .mild_solver import (
    FourierField,
    InitialData,
    NonlinearitySpec,
    ProblemSpec,
    manufacture,
    solve_mild,
)
from .mittag_leffler import calibrate_growth_constants
from .noise_model import NoisyObservation, mise_bound_check, monte_carlo, observe
from .regularizer import (
    RateParams,
    RegConfig,
    admissibility_scan,
    choose_params,
    regularized_solve,
    theory_bound_hq,
    theory_bound_l2,
)
from .spectral import EigenSystem, hq_norm, pad, power_law

#: Factor by which the fitted bound constants exceed the smallest constants
#: whose bound covers the exact expected error on every row.
_BOUND_SAFETY = 1.5

#: Rows per trailing window of the per-row log-log slopes.
_SLOPE_WINDOW = 3


def _finite_number(value) -> bool:
    """True for an int or float, but not a bool, within float64's finite range."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)  # exact for ints, False for NaN


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment run bit for bit; lists
    become tuples, and a ``rate`` mapping becomes :class:`RateParams`."""

    kind: str
    eps_grid: tuple[float, ...]
    replicates: int
    seed: int
    beta: float
    a: float
    M: int = 64
    p_cap: int = 32
    norm: str = "l2"
    q: float = 0.0
    r: float = 0.1
    t_eval: tuple[float, ...] = ()
    rate: RateParams | None = None
    truth_modes: int = 4
    truth_decay: float = 2.0
    truth_u1_scale: float = 0.3
    lipschitz_K: float = 0.05
    eig_kind: str = "linear"
    eig_count: int = 160
    shared_noise: bool = False
    mise_configs: tuple[tuple[float, int, int, float, float], ...] = (
        # (decay, modes, N, eps, gamma)
        (2.0, 64, 8, 0.05, 0.5),
        (2.0, 64, 16, 0.01, 0.5),
        (3.0, 64, 4, 0.2, 1.0),
    )

    def __post_init__(self):
        rate = self.rate
        if isinstance(rate, Mapping):
            for f in fields(RateParams):
                value = rate.get(f.name, 0.0)  # a missing name is RateParams' TypeError
                if f.type == "float" and not _finite_number(value):
                    raise DomainError(f"rate.{f.name} must be a finite number, got {value!r}")
            rate = RateParams(**rate)
        if not isinstance(rate, (RateParams, type(None))):
            raise DomainError(f"rate must be a mapping of the rate parameters, got {rate!r}")
        object.__setattr__(self, "rate", rate)
        for name, item, what in (("eps_grid", float, "numbers"), ("t_eval", float, "numbers"),
                                 ("mise_configs", tuple, "settings")):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, tuple(item(v) for v in value))
            except (TypeError, ValueError):
                raise DomainError(f"{name} must be a list of {what}, got {value!r}") from None
        if self.kind not in ("illposed", "converge", "mise-check"):
            raise DomainError(f"unknown experiment kind {self.kind!r}")
        for name in ("replicates", "seed", "M", "p_cap", "eig_count", "truth_modes"):
            value = getattr(self, name)
            if type(value) is not int:  # exact type: no float, no bool
                raise DomainError(f"{name} must be an integer, got {value!r}")
        if type(self.shared_noise) is not bool:
            raise DomainError(f"shared_noise must be true or false, got {self.shared_noise!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not _finite_number(value):
                raise DomainError(f"{f.name} must be a finite number, got {value!r}")
        if not self.mise_configs:
            raise DomainError("mise_configs must hold at least one setting")
        for c in self.mise_configs:
            if (len(c) != 5 or not all(type(v) is int and v >= 1 for v in c[1:3])
                    or not all(_finite_number(v) for v in (c[0], c[3], c[4]))):
                raise DomainError(
                    "a mise_configs setting is (decay, modes, N, eps, gamma) with "
                    f"finite numbers decay, eps, gamma and integers modes, N >= 1, got {c!r}"
                )
        for i, t in enumerate(self.t_eval):
            if t in self.t_eval[:i]:
                raise DomainError(f"evaluation time t={t} is repeated in t_eval")
        eps = self.eps_grid
        if self.kind != "mise-check":
            if len(eps) < 2 or any(b >= a for a, b in zip(eps, eps[1:])):
                raise DomainError("eps_grid must be strictly decreasing")
            if any(not (0 < e < 1) for e in eps):
                raise DomainError("eps values must lie in (0, 1)")
        if self.replicates < 8:
            raise DomainError("Monte-Carlo experiments need replicates >= 8")
        if not 0 <= self.seed < 1 << 64:  # the first Philox key word
            raise DomainError(f"seed must lie in [0, 2^64), got {self.seed}")
        if not 1.0 < self.beta < 2.0:
            raise DomainError(f"beta must lie strictly in (1, 2), got {self.beta}")
        if not self.a > 0.0:
            raise DomainError(f"horizon a must be positive, got {self.a}")
        if self.norm not in ("l2", "hq"):
            raise DomainError("norm must be 'l2' or 'hq'")
        if self.norm == "hq" and (self.q < 0 or not self.r > 0):
            raise DomainError("hq norm needs q >= 0 and r > 0")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        try:
            return cls(**d)
        except TypeError as exc:  # unknown keys or wrong shapes in a config file
            raise DomainError(f"bad experiment configuration: {exc}") from None


@dataclass(frozen=True)
class ReportRow:
    eps: float
    t: float
    mise: float
    std_err: float
    theory_bound: float | None
    loglog_slope: float | None = None


@dataclass
class ErrorReport:
    """Experiment rows plus metadata; rendered in eps-descending order."""

    rows: list[ReportRow] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def _render_order(self) -> list[ReportRow]:
        # stable, so rows sharing a noise level keep their relative order
        return sorted(self.rows, key=lambda row: -row.eps)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("eps,t,mise,std_err,theory_bound,loglog_slope\n")
        for row in self._render_order():
            tb = "" if row.theory_bound is None else repr(float(row.theory_bound))
            sl = "" if row.loglog_slope is None else repr(float(row.loglog_slope))
            buf.write(
                f"{float(row.eps)!r},{float(row.t)!r},{float(row.mise)!r},"
                f"{float(row.std_err)!r},{tb},{sl}\n"
            )
        return buf.getvalue()

    def to_json(self) -> str:
        payload = {"meta": self.meta, "rows": [asdict(row) for row in self._render_order()]}
        return json.dumps(payload, indent=2)


def emit(report: ErrorReport, path: str, fmt: str = "csv") -> None:
    """Write the report; identical inputs give byte-identical files."""
    if fmt not in ("csv", "json"):
        raise DomainError(f"format must be 'csv' or 'json', got {fmt!r}")
    text = report.to_csv() if fmt == "csv" else report.to_json()
    with open(path, "w", newline="") as handle:
        handle.write(text)


def least_squares_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Ordinary least-squares slope of ys against xs."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size < 2:
        raise DomainError("need at least two points for a slope")
    xm = x - x.mean()
    return float(np.dot(xm, y - y.mean()) / np.dot(xm, xm))


def _attach_window_slopes(rows: list[ReportRow]) -> list[ReportRow]:
    """Per-row log-log slope of mise vs eps over trailing windows of
    ``_SLOPE_WINDOW`` rows.

    Rows are grouped by evaluation time; the first ``_SLOPE_WINDOW - 1`` rows
    of a group (and any window touching a nonpositive mise) carry no slope.
    """
    by_t: dict[float, list[int]] = {}
    for i, row in enumerate(rows):
        by_t.setdefault(row.t, []).append(i)
    out = list(rows)
    for idxs in by_t.values():
        for j, i in enumerate(idxs):
            if j < _SLOPE_WINDOW - 1:
                continue
            chunk = [rows[idxs[j - k]] for k in range(_SLOPE_WINDOW)]
            if any(r.mise <= 0 or r.eps <= 0 for r in chunk):
                continue
            slope = least_squares_slope(
                [math.log(r.eps) for r in chunk], [math.log(r.mise) for r in chunk]
            )
            out[i] = replace(rows[i], loglog_slope=slope)
    return out


def remark_rate_exponent(rp: RateParams, a: float, t: float) -> float:
    """Predicted MISE order in eps at time t under the a-priori rule.

    The error is of order ``eps**E`` with
    ``E = 4bm(a-t)/((2m+1)a) + min(2-2b, 2b(4 gamma - 2 m d)/((2m+1)d),
    4 b mu/((2m+1)d))`` (the max of eps powers is the smallest exponent).
    """
    pre = 4.0 * rp.b * rp.m * (a - t) / ((2.0 * rp.m + 1.0) * a)
    candidates = (
        2.0 - 2.0 * rp.b,
        2.0 * rp.b * (4.0 * rp.gamma - 2.0 * rp.m * rp.d) / ((2.0 * rp.m + 1.0) * rp.d),
        4.0 * rp.b * rp.mu / ((2.0 * rp.m + 1.0) * rp.d),
    )
    return pre + min(candidates)


def illposed_mode_count(eps: float, a: float, beta: float) -> int:
    """Blow-up observation count: floor((2/a ln(1/eps))^(beta/2)) + 1."""
    if not (0 < eps < 1):
        raise DomainError("eps must lie in (0, 1)")
    x = (2.0 / a * math.log(1.0 / eps)) ** (beta / 2.0)
    if not math.isfinite(x):
        raise DomainError(f"the mode count at eps={eps}, a={a}, beta={beta} is not representable")
    return math.floor(x) + 1


# ---------------------------------------------------------------------------
# Instability demonstration
# ---------------------------------------------------------------------------


def illposed_demo(cfg: ExperimentConfig) -> ErrorReport:
    """Noise-only data through the contraction-forced problem: the input
    expectation ``eps^2 N(eps)`` vanishes while the output sup-norm-squared
    blows up like ``eps^-2`` (log-log slope at most -1.8 is asserted into
    the metadata; theoretical value -2).

    Report rows carry the Monte-Carlo output in ``mise`` and the analytic
    input expectation in ``theory_bound`` (the two columns whose divergence
    is the instability signature); per-eps input statistics live in the
    metadata.
    """
    if cfg.kind != "illposed":
        raise DomainError("config kind must be 'illposed'")
    counts = [illposed_mode_count(e, cfg.a, cfg.beta) for e in cfg.eps_grid]
    if max(counts) > cfg.p_cap:
        raise DomainError(
            f"mode count {max(counts)} exceeds the desk-scale cap {cfg.p_cap}"
        )
    gc = calibrate_growth_constants(cfg.beta, cfg.a)
    eig = EigenSystem.dirichlet_laplace_1d(max(counts))
    spec = ProblemSpec(cfg.beta, cfg.a, eig, NonlinearitySpec.gbar(gc.C3))

    per_eps = []
    rows = []
    for idx, eps in enumerate(cfg.eps_grid):
        N = counts[idx]

        def sample(replicates):
            """Input energy and max-row output energy of noise-only replicates."""
            # only obs0 is read, and it is stream 0 under either noise model,
            # so stream 0 alone is drawn
            obs = observe(np.zeros(1), np.zeros(1), eps, N, cfg.seed, shared_noise=True,
                          level=idx, replicate=replicates)
            fld = solve_mild(spec, InitialData(obs.obs0, np.zeros_like(obs.obs0)), P=N, M=cfg.M)
            return np.sum(obs.obs0**2, axis=-1), np.max(np.sum(fld.coeffs**2, axis=-1), axis=-1)

        (input_mc, input_se), (output_mc, output_se) = monte_carlo(sample, cfg.replicates)
        stats = {
            "eps": eps,
            "N": N,
            "input_analytic": eps * eps * N,
            "input_mc": input_mc,
            "input_se": input_se,
            # exact SE of a mean of R eps^2 chi^2_N energies, whose skew biases the sample SE
            "input_exact_se": eps * eps * math.sqrt(2.0 * N / cfg.replicates),
            "output_mc": output_mc,
            "output_se": output_se,
        }
        per_eps.append(stats)
        rows.append(ReportRow(eps=eps, t=cfg.a, mise=output_mc, std_err=output_se,
                              theory_bound=stats["input_analytic"]))
    rows = _attach_window_slopes(rows)

    out_slope = least_squares_slope(
        [math.log(s["eps"]) for s in per_eps], [math.log(s["output_mc"]) for s in per_eps]
    )
    analytic = [s["input_analytic"] for s in per_eps]
    checks = {
        "input_strictly_decreasing": all(b < a for a, b in zip(analytic, analytic[1:])),
        "input_matches_analytic_4se": all(
            abs(s["input_mc"] - s["input_analytic"]) <= 4.0 * s["input_exact_se"]
            for s in per_eps
        ),
        "output_strictly_increasing": all(
            b["output_mc"] > a["output_mc"] for a, b in zip(per_eps, per_eps[1:])
        ),
        "output_rises_two_decades": (
            per_eps[-1]["output_mc"] >= 100.0 * per_eps[0]["output_mc"]
        ),
        "output_slope_at_most_minus_1p8": out_slope <= -1.8,
    }
    meta = {
        "experiment": "illposed",
        "config": asdict(cfg),
        "growth_constant_C3": gc.C3,
        "per_eps": per_eps,
        "output_loglog_slope": out_slope,
        "checks": checks,
        "invariants_ok": all(checks.values()),
    }
    return ErrorReport(rows=rows, meta=meta)


# ---------------------------------------------------------------------------
# Convergence-rate tables
# ---------------------------------------------------------------------------


def _convergence_eig(cfg: ExperimentConfig) -> EigenSystem:
    if cfg.eig_count < 1:
        raise DomainError(f"eig_count must be >= 1, got {cfg.eig_count}")
    if cfg.eig_kind == "dirichlet":
        return EigenSystem.dirichlet_laplace_1d(cfg.eig_count)
    if cfg.eig_kind == "linear":
        return EigenSystem(power_law(cfg.eig_count, -1.0))
    raise DomainError(f"unknown eig_kind {cfg.eig_kind!r}")


def _t_index(t: float, a: float, M: int) -> int:
    if not 0.0 <= t <= a:
        raise DomainError(f"evaluation time t={t} must lie in [0, a={a}]")
    it = round(t / a * M)
    if abs(t - it * a / M) > 1e-9 * a:
        raise DomainError(f"t={t} does not sit on the M={M} grid")
    return it


def _source_constants(
    truth: FourierField, lam: np.ndarray, beta: float, a: float, mu: float, r: float
) -> tuple[float, float]:
    """Source-condition sums of the manufactured truth (finitely many modes,
    so both are finite and computable): the mu-weighted and the r-margin
    exponentially weighted spectral sums, maximized over the time grid."""
    growth = lam ** (1.0 / beta)
    u_sq = truth.coeffs**2
    # an overflow leaves an inf or nan in the sum, which the checks below report
    with np.errstate(over="ignore", invalid="ignore"):
        w_mu = lam**mu * np.exp(
            2.0 * (a - truth.t_grid)[:, None] * growth[None, :]
        )
        m_src = float(np.max(np.sum(w_mu * u_sq, axis=1)))
        w_r = np.exp(2.0 * (a - truth.t_grid + r)[:, None] * growth[None, :])
        m1 = float(np.max(np.sum(w_r * u_sq, axis=1)))
    if not (math.isfinite(m_src) and math.isfinite(m1)):
        raise DomainError(f"the source sums of the truth are not representable at mu={mu}, r={r}")
    return m_src, m1


def convergence_table(cfg: ExperimentConfig) -> ErrorReport:
    """Monte-Carlo MISE of the regularized solution against manufactured
    truth across the eps grid, next to its exact expected value
    (``exact_mise``), with the theoretical bound at constants fitted to that
    value and the predicted rate order in the metadata.

    ``norm='l2'`` measures plain coefficient distance; ``norm='hq'`` weights
    it by ``lam^q`` (with ``q = 0`` the two paths are bit-identical).
    """
    if cfg.kind != "converge":
        raise DomainError("config kind must be 'converge'")
    if cfg.rate is None:
        raise DomainError("convergence experiment needs rate parameters")
    rp = cfg.rate
    eig = _convergence_eig(cfg)  # refuses eig_count < 1 first
    if not 1 <= cfg.truth_modes <= cfg.eig_count:
        raise DomainError(f"truth_modes must be in 1..eig_count, got truth_modes {cfg.truth_modes} "
                          f"and eig_count {cfg.eig_count}")
    lam_full = eig.eigenvalues
    spec = ProblemSpec(cfg.beta, cfg.a, eig, NonlinearitySpec.damped(cfg.lipschitz_K))
    data, truth = manufacture(spec, cfg.truth_modes, cfg.truth_decay, cfg.truth_u1_scale, cfg.M)

    t_eval = cfg.t_eval or (cfg.a / 2.0,)
    t_idx = {t: _t_index(t, cfg.a, cfg.M) for t in t_eval}
    by_row: dict[int, float] = {}
    for t, it in t_idx.items():
        if by_row.setdefault(it, t) != t:
            raise DomainError(
                f"evaluation times t={by_row[it]} and t={t} fall on one row of the M={cfg.M} grid"
            )
    q_eff = cfg.q if cfg.norm == "hq" else 0.0

    gamma2 = 2.0 * rp.gamma
    M0 = hq_norm(data.u0, gamma2, eig) ** 2 + hq_norm(data.u1, gamma2, eig) ** 2
    lam_truth = lam_full[: cfg.truth_modes]
    M_src, M1 = _source_constants(truth, lam_truth, cfg.beta, cfg.a, rp.mu, cfg.r)

    reg_cfgs: list[RegConfig] = []
    for eps in cfg.eps_grid:
        rc = choose_params(eps, rp, cfg.a, cfg.beta, eig)
        if rc.N < 2:
            raise DomainError(f"eps={eps} gives N=1 under the rule: B_N = 0 retains no mode")
        reg_cfgs.append(rc)

    # Every solve returns the rows the report reads, in t_eval order.
    rows = [t_idx[t] for t in t_eval]

    def sq_err(rc, at_t, t):
        """Squared error norm at t of a retained-mode estimate, one per row of a block."""
        ref = truth.coeffs[2 * t_idx[t]]
        # one fixed width, max(N, P_retained, truth modes): the
        # summation order of the norm, and so its bits, depend on it
        width = max(rc.N, at_t.shape[-1], ref.size)
        return hq_norm(pad(at_t, width) - pad(ref, width), q_eff, eig) ** 2

    # The solve is linear and mode-diagonal, so the expected error is exact:
    # the error from noise-free data plus eps^2 times the norms of the solves
    # from unit value and velocity noise (of their sum, under shared noise).
    # Every field of a batch has the bits of its own solve, so these three
    # rows ride at the end of each level's replicates, cut to its N.
    N_max = max(rc.N for rc in reg_cfgs)
    exact0 = np.stack((pad(data.u0, N_max), np.ones(N_max), np.zeros(N_max)))
    exact1 = np.stack((pad(data.u1, N_max), np.zeros(N_max), np.ones(N_max)))
    responses = [None] * len(reg_cfgs)

    def sample(replicates):
        """Squared error norms of the regularized solves, level by level, at every t.

        The whole sweep is one draw: each level keeps the first N of its
        block, which are its own draw of N.  Each level is one solve: its
        replicates and, at the end, the three rows of its exact error.
        """
        sweep = observe(data.u0, data.u1, cfg.eps_grid, N_max, cfg.seed,
                        shared_noise=cfg.shared_noise, level=np.arange(len(reg_cfgs)),
                        replicate=replicates)
        errors = []
        for i, (rc, obs0, obs1) in enumerate(zip(reg_cfgs, sweep.obs0, sweep.obs1)):
            obs = NoisyObservation(np.concatenate((obs0, exact0))[:, : rc.N],
                                   np.concatenate((obs1, exact1))[:, : rc.N], cfg.shared_noise)
            fld = regularized_solve(spec, obs, rc, cfg.M, rows)
            responses[i] = fld.coeffs[-3:]
            errors += [sq_err(rc, fld.coeffs[:-3, j], t) for j, t in enumerate(t_eval)]
        return errors

    est = iter(monte_carlo(sample, cfg.replicates))
    stats = []
    for eps, rc, resp in zip(cfg.eps_grid, reg_cfgs, responses):
        for j, t in enumerate(t_eval):
            mise, se = next(est)
            at_t = resp[:, j]
            noise = at_t[1:2] + at_t[2:] if cfg.shared_noise else at_t[1:]
            var = float(np.sum(hq_norm(noise, q_eff, eig) ** 2))
            exact = sq_err(rc, at_t[0], t) + eps * eps * var
            stats.append(dict(eps=eps, t=t, N=rc.N, B_N=rc.B_N, P_retained=rc.P_retained,
                              mise=mise, se=se, exact_mise=exact))

    def bound(s: dict, c: float) -> float:
        """Bound value at C1 = D1 = c for a stat row."""
        rc = reg_cfgs[cfg.eps_grid.index(s["eps"])]
        if cfg.norm == "l2":
            return theory_bound_l2(rp, rc, s["t"], s["eps"], M0, M_src, c, c, cfg.a, cfg.beta)
        return theory_bound_hq(
            rp, rc, s["t"], cfg.r, q_eff, s["eps"], M0, M1, c, c, cfg.a, cfg.beta
        )

    # The undetermined bound constants are fitted to the exact expected error,
    # not to the Monte-Carlo sweep that the bound is then checked against.
    c_req = max(s["exact_mise"] / bound(s, 1.0) for s in stats)
    c_cal = _BOUND_SAFETY * max(c_req, 1e-12)

    rows = []
    for s in stats:
        s["bound"] = bound(s, c_cal)
        rows.append(ReportRow(eps=s["eps"], t=s["t"], mise=s["mise"], std_err=s["se"],
                              theory_bound=s["bound"]))
    rows = _attach_window_slopes(rows)

    per_t_checks = {}
    for t in t_eval:
        grp = [s for s in stats if s["t"] == t]
        slope = least_squares_slope(
            [math.log(s["eps"]) for s in grp], [math.log(s["mise"]) for s in grp]
        )
        predicted = remark_rate_exponent(rp, cfg.a, t)
        per_t_checks[repr(t)] = {
            "observed_slope": slope,
            "predicted_order": predicted,
            "slope_within_quarter": abs(slope - predicted) <= 0.25,
            "monotone_decreasing": all(
                b["mise"] < a["mise"] for a, b in zip(grp, grp[1:])
            ),
            "bound_satisfied": all(s["mise"] <= s["bound"] for s in grp),
        }
    scan = admissibility_scan(rp, cfg.a, cfg.beta, eig, cfg.eps_grid)
    meta = {
        "experiment": "converge",
        "config": asdict(cfg),
        "norm": cfg.norm,
        "q": q_eff,
        "constants": {"M0": M0, "M_source": M_src, "M1": M1, "C1": c_cal, "D1": c_cal},
        "rows_detail": stats,
        "per_t": per_t_checks,
        "admissibility": scan,
        "invariants_ok": all(
            c["monotone_decreasing"] and c["bound_satisfied"] and c["slope_within_quarter"]
            for c in per_t_checks.values()
        ),
    }
    return ErrorReport(rows=rows, meta=meta)


# ---------------------------------------------------------------------------
# Data-MISE identity validation
# ---------------------------------------------------------------------------


def mise_check(cfg: ExperimentConfig) -> ErrorReport:
    """Monte-Carlo vs analytic data MISE for several (u0, N, eps) settings.

    The expectation identity is exact, so agreement within four standard
    errors at the configured replicate count is the pass condition; the
    variance-bias bound must hold on every setting.
    """
    if cfg.kind != "mise-check":
        raise DomainError("config kind must be 'mise-check'")
    rows = []
    details = []
    for idx, (decay, modes, N, eps, gamma) in enumerate(cfg.mise_configs):
        width = max(modes, N)  # the bound reads lam_N, so the spectrum reaches N
        eig = EigenSystem.dirichlet_laplace_1d(width)
        u0 = power_law(modes, decay)
        analytic, bound = mise_bound_check(u0, float(gamma), float(eps), N, eig)

        def sample(replicates):
            """Squared distance of each replicate's data from the truth."""
            # only obs0 is read, and it is stream 0 under either noise model,
            # so stream 0 alone is drawn
            obs = observe(u0, np.zeros(1), float(eps), N, cfg.seed, shared_noise=True,
                          level=idx, replicate=replicates)
            d = pad(obs.obs0, width) - pad(u0, width)
            return (np.sum(d * d, axis=-1),)

        [(mc, se)] = monte_carlo(sample, cfg.replicates)
        agree = abs(mc - analytic) <= 4.0 * se
        details.append(dict(decay=decay, modes=modes, N=N, eps=eps, gamma=gamma, analytic=analytic,
                            variance_bias_bound=bound, mc=mc, se=se, agrees_4se=agree,
                            bound_holds=analytic <= bound))
        rows.append(ReportRow(eps=float(eps), t=0.0, mise=mc, std_err=se, theory_bound=bound))
    meta = {
        "experiment": "mise-check",
        # only what mise_check reads: fed back as a config, it reproduces the report
        "config": {k: v for k, v in asdict(cfg).items()
                   if k in ("kind", "replicates", "seed", "mise_configs")},
        "settings": details,
        "invariants_ok": all(d["agrees_4se"] and d["bound_holds"] for d in details),
    }
    return ErrorReport(rows=rows, meta=meta)
