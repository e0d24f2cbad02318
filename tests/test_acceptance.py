"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance and runtime budget is asserted in place.
"""

import math
import time

import numpy as np
import pytest

from fracreg.experiments import (
    ExperimentConfig,
    convergence_table,
    emit,
    illposed_demo,
    least_squares_slope,
    mise_check,
)
from fracreg.mild_solver import InitialData, NonlinearitySpec, ProblemSpec, solve_mild
from fracreg.mittag_leffler import calibrate_growth_constants, ml
from fracreg.regularizer import RateParams
from fracreg.spectral import EigenSystem

from oracles import hq_envelope_max, volterra_reference
from test_mild_solver import volterra_step
from test_mittag_leffler import calibrate_c1_c2, growth_ratio_grids
from test_regularizer import hq_envelope_decreasing

SEED = 20260809

CONVERGE_CFG = dict(
    kind="converge",
    eps_grid=(1e-4, 3e-5, 1e-5, 3e-6, 1e-6, 3e-7, 1e-7),
    replicates=64,
    seed=SEED,
    beta=1.5,
    a=1.0,
    M=128,
    t_eval=(0.25,),
    lipschitz_K=0.02,
    rate=RateParams(b=1.0, m=6.0, k=1.0, gamma=3.5, d=1, mu=2.0),
    eig_kind="dirichlet",
    eig_count=64,
    truth_modes=4,
    truth_decay=2.0,
    truth_u1_scale=0.3,
)

ILLPOSED_CFG = dict(
    kind="illposed",
    eps_grid=(1e-1, 1e-2, 1e-3, 1e-4),
    replicates=64,
    seed=SEED,
    beta=1.8,
    a=1.0,
    M=64,
    p_cap=32,
)


def report(criterion: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_mittag_leffler_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    zs = rng.uniform(0.0, 30.0, size=200)
    worst = 0.0
    for z in zs:
        z = float(z)
        e = ml(1.0, 1.0, z).value
        worst = max(worst, abs(e - math.exp(z)) / math.exp(z))
        c = ml(2.0, 1.0, z).value
        worst = max(worst, abs(c - math.cosh(math.sqrt(z))) / math.cosh(math.sqrt(z)))
        if z > 0:
            f = ml(1.0, 2.0, z).value
            want = math.expm1(z) / z
            worst = max(worst, abs(f - want) / abs(want))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-10 and elapsed < 1.0,
        f"exp/cosh/(e^z-1)/z identities on 200 random z in [0,30]: "
        f"worst rel err {worst:.2e} (tol 1e-10), {elapsed:.2f}s (budget 1s)",
    )


def test_criterion_2_growth_bound_suite():
    start = time.perf_counter()
    betas = [1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    lams = np.arange(1, 401, dtype=float)
    ts = np.linspace(0.0, 1.0, 101)
    violations = 0
    for beta in betas:
        C1, C2 = calibrate_c1_c2(beta, 1.0)
        C3 = calibrate_growth_constants(beta, 1.0).C3
        r1, r2, r3 = growth_ratio_grids(beta, lams, ts)
        violations += int(np.sum(r1 > C1))
        violations += int(np.sum(r2 > C2))
        violations += int(np.sum(r3 > C3))
    elapsed = time.perf_counter() - start
    report(
        2,
        violations == 0 and elapsed < 10.0,
        f"kernel growth bounds on beta grid {betas[0]}..{betas[-1]}, "
        f"lam 1..400, t in [0,1]: {violations} violations (need 0), "
        f"{elapsed:.2f}s (budget 10s)",
    )


def test_criterion_3_asymptotic_ratio():
    start = time.perf_counter()
    worst = 0.0
    for beta in (1.2, 1.5, 1.8):
        for z in np.linspace(50.0, 200.0, 51):
            ratio = beta * ml(beta, 1.0, float(z)).value * math.exp(-z ** (1.0 / beta))
            worst = max(worst, abs(ratio - 1.0))
    elapsed = time.perf_counter() - start
    report(
        3,
        worst < 0.05 and elapsed < 5.0,
        f"|beta E exp(-z^(1/beta)) - 1| on z in [50,200]: worst {worst:.2e} "
        f"(tol 0.05), {elapsed:.2f}s (budget 5s)",
    )


def test_criterion_4_forward_solver_oracle():
    start = time.perf_counter()
    # closed-form mode solutions for G = 0
    worst = 0.0
    for beta in (1.3, 1.5, 1.7):
        eig = EigenSystem.dirichlet_laplace_1d(4)
        spec = ProblemSpec(beta, 1.0, eig, NonlinearitySpec.damped(0.0))
        rng = np.random.default_rng(SEED + 1)
        data = InitialData(rng.normal(size=4), rng.normal(size=4))
        field = solve_mild(spec, data, P=4, M=32)
        for i in (0, 8, 16, 32):
            t = float(field.t_grid[i])
            for p in range(1, 5):
                z = eig.lam(p) * t**beta
                want = (
                    ml(beta, 1.0, z).value * data.u0[p - 1]
                    + t * ml(beta, 2.0, z).value * data.u1[p - 1]
                )
                worst = max(worst, abs(field.coeffs[i, p - 1] - want))
    closed_ok = worst <= 1e-9

    # quadrature self-convergence of the Volterra term
    spec = ProblemSpec(1.5, 1.0, EigenSystem.dirichlet_laplace_1d(4), NonlinearitySpec.damped(0.0))
    ref = volterra_reference(1.5, 4.0, 1.0, lambda eta: math.cos(3.0 * eta))
    Ms = [32, 64, 128, 256]
    errs = []
    for n in Ms:
        hist = np.cos(3.0 * np.linspace(0.0, 1.0, n + 1))
        errs.append(abs(volterra_step(spec, 2, hist, 1.0) - ref))
    slope = -least_squares_slope(np.log(Ms), np.log(errs))
    slope_ok = 1.8 <= slope <= 2.2
    elapsed = time.perf_counter() - start
    report(
        4,
        closed_ok and slope_ok and elapsed < 30.0,
        f"closed-form match worst abs err {worst:.2e} (tol 1e-9); quadrature "
        f"order {slope:.3f} (need [1.8, 2.2]); {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_5_data_mise_identity():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        kind="mise-check",
        eps_grid=(0.05,),
        replicates=10_000,
        seed=SEED,
        beta=1.5,
        a=1.0,
    )
    rep = mise_check(cfg)
    agree = all(d["agrees_4se"] for d in rep.meta["settings"])
    bound = all(d["bound_holds"] for d in rep.meta["settings"])
    elapsed = time.perf_counter() - start
    gaps = [
        abs(d["mc"] - d["analytic"]) / d["se"] if d["se"] > 0 else 0.0
        for d in rep.meta["settings"]
    ]
    report(
        5,
        agree and bound and elapsed < 60.0,
        f"MC vs analytic eps^2 N + tail on 3 configs at 10^4 replicates: "
        f"max |gap|/se {max(gaps):.2f} (need <= 4), bound violations "
        f"{0 if bound else 'present'}; {elapsed:.1f}s (budget 60s)",
    )


@pytest.fixture(scope="module")
def illposed_report():
    return illposed_demo(ExperimentConfig(**ILLPOSED_CFG))


def test_criterion_6_illposedness_demo(illposed_report):
    start = time.perf_counter()
    rep = illposed_report
    checks = rep.meta["checks"]
    slope = rep.meta["output_loglog_slope"]
    elapsed = time.perf_counter() - start  # fixture time excluded; budget on demo below
    ok = all(checks.values())
    report(
        6,
        ok,
        f"input eps^2 N decreasing and matching MC within 4 se: "
        f"{checks['input_strictly_decreasing'] and checks['input_matches_analytic_4se']}; "
        f"output increasing: {checks['output_strictly_increasing']}; "
        f"output slope {slope:.3f} (need <= -1.8, theory -2)",
    )


def test_criterion_6_runtime_budget():
    start = time.perf_counter()
    illposed_demo(ExperimentConfig(**ILLPOSED_CFG))
    elapsed = time.perf_counter() - start
    report(6, elapsed < 300.0, f"instability demo runtime {elapsed:.1f}s (budget 300s)")


@pytest.fixture(scope="module")
def converge_l2_report():
    return convergence_table(ExperimentConfig(**CONVERGE_CFG))


def test_criterion_7_convergence_rate(converge_l2_report):
    start = time.perf_counter()
    rep = converge_l2_report
    checks = rep.meta["per_t"]["0.25"]
    elapsed = time.perf_counter() - start
    ok = (
        checks["monotone_decreasing"]
        and checks["bound_satisfied"]
        and checks["slope_within_quarter"]
    )
    report(
        7,
        ok,
        f"4-mode truth, rule (b=1, m=6 < 2*gamma/d=7): MISE monotone "
        f"{checks['monotone_decreasing']}; observed slope "
        f"{checks['observed_slope']:.3f} vs predicted "
        f"{checks['predicted_order']:.3f} (tol 0.25); bounds hold "
        f"{checks['bound_satisfied']}",
    )


def test_criterion_7_runtime_budget():
    start = time.perf_counter()
    convergence_table(ExperimentConfig(**CONVERGE_CFG))
    elapsed = time.perf_counter() - start
    report(7, elapsed < 600.0, f"convergence table runtime {elapsed:.1f}s (budget 600s)")


def test_criterion_8_hq_convergence(converge_l2_report):
    start = time.perf_counter()
    # H^0 must reproduce the L2 results bit for bit
    h0 = convergence_table(ExperimentConfig(**{**CONVERGE_CFG, "norm": "hq", "q": 0.0}))
    bitwise = all(
        a.mise == b.mise and a.std_err == b.std_err
        for a, b in zip(converge_l2_report.rows, h0.rows)
    )

    bounds_ok = True
    for q in (0.5, 1.0):
        rep = convergence_table(ExperimentConfig(**{**CONVERGE_CFG, "norm": "hq", "q": q}))
        bounds_ok &= rep.meta["per_t"]["0.25"]["bound_satisfied"]

    # monotone envelope of z^q exp(-2(a-t+r) z^(1/beta)) past the cutoff
    coef = 2.0 * (1.0 - 0.25 + 0.1)
    env_ok = True
    for q in (0.5, 1.0):
        for B in (24.0, 54.6):
            env_ok &= hq_envelope_decreasing(B, q, coef, 1.5)
            _, argmax = hq_envelope_max(q, coef, 1.5, B)
            env_ok &= argmax == B
    elapsed = time.perf_counter() - start
    report(
        8,
        bitwise and bounds_ok and env_ok and elapsed < 600.0,
        f"H^0 bitwise equals L2: {bitwise}; H^q bounds hold for q in "
        f"{{0.5, 1}}: {bounds_ok}; envelope max at cutoff: {env_ok}; "
        f"{elapsed:.1f}s (budget 600s)",
    )


def test_criterion_9_determinism(tmp_path, illposed_report):
    rep2 = illposed_demo(ExperimentConfig(**ILLPOSED_CFG))
    files = {}
    for name, rep in (("run1", illposed_report), ("run2", rep2)):
        csv_p = tmp_path / f"{name}.csv"
        json_p = tmp_path / f"{name}.json"
        emit(rep, str(csv_p), "csv")
        emit(rep, str(json_p), "json")
        files[name] = (csv_p.read_bytes(), json_p.read_bytes())
    ill_ok = files["run1"] == files["run2"]

    small = dict(CONVERGE_CFG)
    small.update(eps_grid=(1e-4, 3e-5, 1e-5), replicates=12, M=32)
    c1 = convergence_table(ExperimentConfig(**small))
    c2 = convergence_table(ExperimentConfig(**small))
    conv_ok = c1.to_csv() == c2.to_csv() and c1.to_json() == c2.to_json()
    report(
        9,
        ill_ok and conv_ok,
        f"re-running with identical config+seed: instability demo files "
        f"bit-identical {ill_ok}; convergence table bit-identical {conv_ok}",
    )
