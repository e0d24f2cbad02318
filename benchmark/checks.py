"""Checks of fracreg's outputs, computed apart from the program.

Nothing here imports fracreg.  Every expected value is recomputed from the
configuration the benchmark itself passed to the program, and compared with
the report the program wrote or the field it returned.  Each check returns a
list of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np


def ls_slope(xs, ys) -> float:
    """Ordinary least-squares slope of ys against xs."""
    n = len(xs)
    xm = sum(xs) / n
    ym = sum(ys) / n
    sxx = sum((x - xm) ** 2 for x in xs)
    return sum((x - xm) * (y - ym) for x, y in zip(xs, ys)) / sxx


def rate_exponent(rate: dict, a: float, t: float) -> float:
    """The paper's MISE order in eps at time t under the a-priori rule:
    ``4bm(a-t)/((2m+1)a) + min(2-2b, 2b(4g-2md)/((2m+1)d), 4b mu/((2m+1)d))``.
    """
    b, m, g, d, mu = rate["b"], rate["m"], rate["gamma"], rate["d"], rate["mu"]
    pre = 4.0 * b * m * (a - t) / ((2.0 * m + 1.0) * a)
    return pre + min(
        2.0 - 2.0 * b,
        2.0 * b * (4.0 * g - 2.0 * m * d) / ((2.0 * m + 1.0) * d),
        4.0 * b * mu / ((2.0 * m + 1.0) * d),
    )


def _rows_by_eps(report: dict, eps_grid) -> tuple[list[dict], list[str]]:
    """The report's rows in the order of eps_grid, or the reason they are not there."""
    rows = {row["eps"]: row for row in report["rows"]}
    if len(report["rows"]) != len(eps_grid) or set(rows) != set(eps_grid):
        return [], [f"rows cover eps {sorted(rows)}, expected {sorted(eps_grid)}"]
    return [rows[e] for e in eps_grid], []


def check_converge(report: dict, cfg: dict) -> list[str]:
    """Rate, monotonicity and bound of one ``fracreg converge`` report.

    ``cfg`` holds one evaluation time; the eps grid is strictly decreasing.
    """
    rows, fails = _rows_by_eps(report, cfg["eps_grid"])
    if fails:
        return fails
    (t,) = cfg["t_eval"]
    mise = [row["mise"] for row in rows]
    if any(row["t"] != t for row in rows):
        fails.append(f"rows are not all at t={t}")
    if not all(math.isfinite(v) and v > 0 for v in mise):
        return fails + [f"MISE not finite and positive: {mise}"]
    if not all(b < a for a, b in zip(mise, mise[1:])):
        fails.append(f"MISE does not strictly decrease as eps falls: {mise}")
    for row in rows:
        bound = row["theory_bound"]
        if bound is None or not row["mise"] <= bound:
            fails.append(f"eps={row['eps']}: MISE {row['mise']} above its bound {bound}")
    slope = ls_slope([math.log(e) for e in cfg["eps_grid"]], [math.log(v) for v in mise])
    want = rate_exponent(cfg["rate"], cfg["a"], t)
    if not abs(slope - want) <= 0.25:
        fails.append(f"log-log slope {slope:.4f} is not within 0.25 of {want:.4f}")
    return fails


def mise_expected(decay: float, modes: int, N: int, eps: float, gamma: float):
    """``(analytic MISE, variance-bias bound)`` of one mise-check setting:
    ``eps^2 N + sum_{N<p<=modes} p^(-2 decay)`` and
    ``eps^2 N + N^(-4 gamma) sum_{p<=modes} p^(4 gamma - 2 decay)``."""
    noise = eps * eps * N
    analytic = noise + math.fsum(p ** (-2.0 * decay) for p in range(N + 1, modes + 1))
    smooth = math.fsum(p ** (4.0 * gamma - 2.0 * decay) for p in range(1, modes + 1))
    return analytic, noise + N ** (-4.0 * gamma) * smooth


def check_mise(report: dict, cfg: dict) -> list[str]:
    """Monte-Carlo agreement and bound of one ``fracreg mise-check`` report.

    The noise levels of ``cfg["mise_configs"]`` are distinct, so each row is
    matched to its setting by ``eps``.
    """
    settings = cfg["mise_configs"]
    rows, fails = _rows_by_eps(report, [s[3] for s in settings])
    if fails:
        return fails
    for (decay, modes, N, eps, gamma), row in zip(settings, rows):
        analytic, bound = mise_expected(decay, modes, N, eps, gamma)
        se = row["std_err"]
        if not (math.isfinite(se) and se > 0):
            fails.append(f"eps={eps}: standard error {se} not finite and positive")
        elif not abs(row["mise"] - analytic) <= 4.0 * se:
            fails.append(
                f"eps={eps}: MC mean {row['mise']} is {abs(row['mise'] - analytic) / se:.2f} "
                f"standard errors from {analytic}"
            )
        reported = row["theory_bound"]
        if reported is None or not math.isclose(reported, bound, rel_tol=1e-9):
            fails.append(f"eps={eps}: reported bound {reported}, recomputed {bound}")
        if reported is None or not reported >= analytic:
            fails.append(f"eps={eps}: reported bound {reported} below the analytic MISE {analytic}")
    return fails


def illposed_mode_count(eps: float, a: float, beta: float) -> int:
    """``N(eps) = floor((2/a ln(1/eps))^(beta/2)) + 1``."""
    return math.floor((2.0 / a * math.log(1.0 / eps)) ** (beta / 2.0)) + 1


def check_illposed(report: dict, cfg: dict) -> list[str]:
    """Mode counts, input energy and output blow-up of one ``fracreg illposed`` report."""
    rows, fails = _rows_by_eps(report, cfg["eps_grid"])
    if fails:
        return fails
    per_eps = {s["eps"]: s for s in report["meta"]["per_eps"]}
    for row in rows:
        eps = row["eps"]
        N = illposed_mode_count(eps, cfg["a"], cfg["beta"])
        if per_eps.get(eps, {}).get("N") != N:
            fails.append(f"eps={eps}: reported N {per_eps.get(eps, {}).get('N')}, expected {N}")
        if row["theory_bound"] is None or not math.isclose(
            row["theory_bound"], eps * eps * N, rel_tol=1e-12
        ):
            fails.append(f"eps={eps}: input energy {row['theory_bound']}, expected {eps * eps * N}")
    out = [row["mise"] for row in rows]
    if not all(math.isfinite(v) and v > 0 for v in out):
        return fails + [f"output not finite and positive: {out}"]
    if not all(b > a for a, b in zip(out, out[1:])):
        fails.append(f"output does not strictly increase as eps falls: {out}")
    slope = ls_slope([math.log(e) for e in cfg["eps_grid"]], [math.log(v) for v in out])
    if not slope <= -1.8:
        fails.append(f"output log-log slope {slope:.4f} is above -1.8")
    return fails


def check_fine_grid(fields: dict, ladder, vectors) -> dict:
    """Failures of the fine-grid solves, keyed by ``(vector, M)``.

    ``fields[(v, M)]`` is the ``(M+1, P)`` coefficient array of vector ``v``
    on the M-step grid; ``ladder`` doubles at each step, and ``vectors``
    ends with the sum of the two before it.  A solve fails when a
    coefficient is not finite, when the observed order of the refinement
    step that ends at it leaves [1.8, 2.2], or, for the sum vector, when it
    differs from the sum of the other two by more than 1e-10 relative.
    """
    fails: dict = {}

    def fail(key, msg):
        fails.setdefault(key, []).append(msg)

    for key, u in fields.items():
        if not np.all(np.isfinite(u)):
            fail(key, "coefficients not finite")
    for v in vectors:
        # Successive refinement differences on the nodes the two grids share.
        gaps = [
            float(np.max(np.abs(fields[(v, M)] - fields[(v, 2 * M)][::2])))
            for M in ladder[:-1]
        ]
        for k in range(1, len(gaps)):
            order = math.log2(gaps[k - 1] / gaps[k]) if gaps[k] > 0 else math.inf
            if not 1.8 <= order <= 2.2:
                fail((v, ladder[k + 1]), f"observed order {order:.4f} outside [1.8, 2.2]")
    x, y, s = vectors[-3:]
    for M in ladder:
        total = fields[(x, M)] + fields[(y, M)]
        gap = float(np.max(np.abs(fields[(s, M)] - total)))
        scale = float(np.max(np.abs(total)))
        if not gap <= 1e-10 * scale:
            fail((s, M), f"superposition gap {gap:.3e} above 1e-10 of {scale:.3e}")
    return fails
