import math

import numpy as np
import pytest

from fracreg.errors import DomainError
from fracreg.mild_solver import InitialData, NonlinearitySpec, ProblemSpec, solve_mild
from fracreg.noise_model import observe
from fracreg.regularizer import (
    RateParams,
    RegConfig,
    admissibility_scan,
    choose_params,
    hq_envelope_decreasing,
    hq_envelope_max,
    regularized_solve,
    retained_count,
    theory_bound_hq,
    theory_bound_l2,
)
from fracreg.spectral import EigenSystem

# Frozen: (ln 21)^1.5 evaluated directly
B_N_WORKED = 5.312253222519525


def dirichlet_spec(beta=1.5, a=1.0, count=16):
    return ProblemSpec(beta, a, EigenSystem.dirichlet_laplace_1d(count), NonlinearitySpec.zero())


def manual_cfg(eig, B_N, N):
    return RegConfig(B_N=B_N, N=N, P_retained=retained_count(eig, B_N), lam_N=eig.lam(N))


def test_retained_count_exact_comparison():
    eig = EigenSystem.dirichlet_laplace_1d(10)
    assert retained_count(eig, 4.0) == 2  # lam = 1, 4 kept, 9 dropped
    assert retained_count(eig, 3.9999) == 1
    assert retained_count(eig, 0.5) == 0


def test_choose_params_worked_example():
    rp = RateParams(b=1.0, m=1.0, k=1.0, gamma=1.0, d=1, mu=1.0)
    eig = EigenSystem.dirichlet_laplace_1d(32)
    cfg = choose_params(0.01, rp, a=1.0, beta=1.5, eig=eig)
    assert cfg.N == 21
    assert cfg.B_N == pytest.approx(B_N_WORKED, rel=1e-13)
    assert cfg.lam_N == 441.0
    assert cfg.P_retained == retained_count(eig, cfg.B_N) == 2


def test_choose_params_rejects_large_eps():
    rp = RateParams(b=1.0, m=1.0, k=1.0, gamma=1.0, d=1, mu=1.0)
    eig = EigenSystem.dirichlet_laplace_1d(4)
    with pytest.raises(DomainError):
        choose_params(1.5, rp, 1.0, 1.5, eig)
    # eps just under 1 is degenerate but legal: one observation, zero cutoff
    cfg = choose_params(0.99, RateParams(b=0.01, m=1.0, k=1.0, gamma=1.0, d=1, mu=1.0),
                        1.0, 1.5, eig)
    assert cfg.N == 1 and cfg.B_N == 0.0 and cfg.P_retained == 0


def test_rate_params_invariant():
    with pytest.raises(DomainError):
        RateParams(b=1.0, m=2.0, k=1.0, gamma=1.0, d=1, mu=1.0)  # m = 2*gamma/d
    with pytest.raises(DomainError):
        RateParams(b=1.0, m=0.0, k=1.0, gamma=1.0, d=1, mu=1.0)
    for bad in ({"b": math.inf}, {"k": math.inf}, {"mu": math.inf}, {"gamma": math.inf},
                {"m": math.nan}, {"d": 1.5}, {"d": True}):
        with pytest.raises(DomainError):
            RateParams(**{**dict(b=1.0, m=1.0, k=1.0, gamma=1.0, d=1, mu=1.0), **bad})
    RateParams(b=1.0, m=1.9, k=1.0, gamma=1.0, d=1, mu=1.0)


def test_admissibility_scan_vanishing_configuration():
    # b < 1 makes the noise quantity genuinely vanish
    rp = RateParams(b=0.8, m=1.0, k=1.0, gamma=1.5, d=1, mu=1.0)
    eig = EigenSystem.dirichlet_laplace_1d(8)
    scan = admissibility_scan(rp, 1.0, 1.5, eig, [10.0**-k for k in range(1, 7)])
    assert scan["B_increasing"]
    assert scan["noise_vanishing"]
    assert scan["bias_vanishing"]


def test_admissibility_scan_borderline_configuration_reports_honestly():
    # at b = 1, k = 1 the noise quantity eps^2 N exp(...) = eps^2 N^(2m+1)
    # is exactly borderline (constant up to flooring), not vanishing
    rp = RateParams(b=1.0, m=1.0, k=1.0, gamma=1.5, d=1, mu=1.0)
    eig = EigenSystem.dirichlet_laplace_1d(8)
    scan = admissibility_scan(rp, 1.0, 1.5, eig, [10.0**-k for k in range(1, 7)])
    assert scan["B_increasing"]
    assert not scan["noise_vanishing"]
    assert scan["bias_vanishing"]


def test_regularized_solve_matches_forward_map_when_inactive():
    # tiny noise, cutoff above every retained eigenvalue: the regularized
    # solution is the forward solution on the retained set
    spec = dirichlet_spec(count=4)
    eig = spec.eig
    u0 = np.array([1.0, 0.5, 0.25, 0.125])
    u1 = np.array([0.2, 0.1, 0.0, 0.0])
    obs = observe(u0, u1, 1e-300, 4, seed=13)
    cfg = manual_cfg(eig, B_N=100.0, N=4)
    reg = regularized_solve(spec, obs, cfg, 16)
    tol = 1e-12
    mild = solve_mild(spec, InitialData(u0, u1), P=4, M=16, tol=tol)
    assert np.max(np.abs(reg.coeffs - mild.coeffs)) <= 10 * tol + 1e-280


def test_regularized_solve_zeroes_dropped_modes():
    spec = dirichlet_spec(count=8)
    obs = observe(np.ones(8), np.zeros(8), 0.1, 8, seed=21)
    cfg = manual_cfg(spec.eig, B_N=5.0, N=8)  # retains lam = 1, 4 only
    field = regularized_solve(spec, obs, cfg, 16)
    assert cfg.P_retained == 2
    # the field holds the retained modes only; dropped modes are not stored
    assert field.coeffs.shape == (17, 2)
    assert np.max(np.abs(field.coeffs)) > 0.0
    # no mode retained: a zero-width field on the same grid
    none = regularized_solve(spec, obs, manual_cfg(spec.eig, B_N=0.5, N=8), 16)
    assert none.coeffs.shape == (17, 0)
    assert np.array_equal(none.t_grid, field.t_grid)


def test_regularized_solve_no_coupling_linear_case():
    # G = 0: retained mode p is exactly the homogeneous evolution of its
    # observed coefficients
    from fracreg.mittag_leffler import ml

    spec = dirichlet_spec(count=4)
    obs = observe(np.array([0.3, -0.2]), np.array([0.1, 0.4]), 0.05, 4, seed=5)
    cfg = manual_cfg(spec.eig, B_N=4.0, N=4)
    field = regularized_solve(spec, obs, cfg, 8)
    for p in (1, 2):
        lam = spec.eig.lam(p)
        for i in (0, 4, 8):
            t = float(field.t_grid[i])
            want = (
                ml(1.5, 1.0, lam * t**1.5).value * obs.obs0[p - 1]
                + t * ml(1.5, 2.0, lam * t**1.5).value * obs.obs1[p - 1]
            )
            assert field.coeffs[i, p - 1] == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_regularized_solve_requires_matching_N():
    spec = dirichlet_spec(count=4)
    obs = observe(np.ones(4), np.zeros(4), 0.1, 4, seed=2)
    cfg = manual_cfg(spec.eig, B_N=4.0, N=5)
    with pytest.raises(DomainError):
        regularized_solve(spec, obs, cfg, 16)


def test_theory_bound_l2_structure():
    rp = RateParams(b=1.0, m=1.0, k=1.0, gamma=1.0, d=1, mu=2.0)
    eig = EigenSystem.dirichlet_laplace_1d(32)
    cfg = manual_cfg(eig, B_N=9.0, N=10)
    a, beta = 1.0, 1.5

    at_horizon = theory_bound_l2(rp, cfg, t=a, eps=0.01, M0=1.0, M_source=2.0,
                                 C1=1.0, D1=1.0, a=a, beta=beta)
    assert at_horizon.terms["truncation_term"] == pytest.approx(
        2.0 * 9.0**-2.0 * 4.0, rel=1e-12
    )  # exp factor is exactly 1 at t = a

    small_eps = theory_bound_l2(rp, cfg, t=0.5, eps=1e-300, M0=1.0, M_source=2.0,
                                C1=1.0, D1=1.0, a=a, beta=beta)
    assert small_eps.terms["noise_term"] == pytest.approx(0.0, abs=1e-290)
    assert small_eps.terms["bias_term"] > 0
    assert small_eps.terms["truncation_term"] > 0

    full = theory_bound_l2(rp, cfg, t=0.5, eps=0.01, M0=1.0, M_source=2.0,
                           C1=3.0, D1=0.5, a=a, beta=beta)
    assert full.l2_bound == pytest.approx(sum(full.terms.values()), rel=1e-14)
    assert 0 < full.l2_bound < math.inf


def test_unrepresentable_bounds_raise_domain_error():
    rp = RateParams(b=1.0, m=1.0, k=1.0, gamma=1.0, d=1, mu=2.0)
    eig = EigenSystem.dirichlet_laplace_1d(32)

    def l2(B_N):
        return theory_bound_l2(rp, manual_cfg(eig, B_N=B_N, N=10), t=0.5, eps=0.01, M0=1.0,
                               M_source=2.0, C1=1.0, D1=1.0, a=1.0, beta=1.5)

    def hq(B_N, q):
        return theory_bound_hq(rp, manual_cfg(eig, B_N=B_N, N=10), t=0.5, r=0.1, q=q,
                               eps=0.01, M0=1.0, M1=2.0, C1=1.0, D1=1.0, a=1.0, beta=1.5)

    # B_N = 0 divides by zero in B_N^(-mu); B_N = 1e6 overflows
    # exp(2 B_N^(1/beta) t); q = 400 overflows B_N^q
    for call in (lambda: l2(0.0), lambda: l2(1e6), lambda: hq(1e6, 0.5), lambda: hq(9.0, 400.0)):
        with pytest.raises(DomainError):
            call()


def test_theory_bound_hq_reduces_at_q_zero():
    rp = RateParams(b=1.0, m=1.0, k=1.0, gamma=1.0, d=1, mu=2.0)
    eig = EigenSystem.dirichlet_laplace_1d(32)
    cfg = manual_cfg(eig, B_N=9.0, N=10)
    a, beta, t, r, eps = 1.0, 1.5, 0.5, 0.1, 0.01
    hq = theory_bound_hq(rp, cfg, t=t, r=r, q=0.0, eps=eps, M0=1.0, M1=2.0,
                         C1=1.0, D1=1.0, a=a, beta=beta)
    x = 9.0 ** (1 / 1.5)
    want_noise = 4.0 * math.exp(2 * x * t) * 2.0 * eps * eps * 10
    want_trunc = 4.0 * (2.0 + 1.0) * math.exp(-2.0 * (a - t + r) * x)
    assert hq.terms["noise_term"] == pytest.approx(want_noise, rel=1e-12)
    assert hq.terms["truncation_term"] == pytest.approx(want_trunc, rel=1e-12)
    assert hq.hq_bound == pytest.approx(sum(hq.terms.values()), rel=1e-14)
    assert hq.envelope_decreasing


def test_hq_envelope_grid_scan():
    # threshold holds: max over z >= B sits at B itself
    q, coef, beta, B = 1.0, 1.2, 1.5, 37.0
    assert hq_envelope_decreasing(B, q, coef, beta)
    mx, arg = hq_envelope_max(q, coef, beta, B)
    assert arg == B
    assert mx == pytest.approx(B**q * math.exp(-coef * B ** (1 / beta)), rel=1e-12)

    # threshold violated: interior maximum exceeds the cutoff value
    q2, coef2, B2 = 5.0, 0.1, 1.0
    assert not hq_envelope_decreasing(B2, q2, coef2, beta)
    mx2, arg2 = hq_envelope_max(q2, coef2, beta, B2, z_max=1e6)
    assert arg2 > B2
    assert mx2 > B2**q2 * math.exp(-coef2 * B2 ** (1 / beta))


def test_regularized_solve_wider_cutoff_than_data():
    # cutoff far above the observed window: unobserved retained modes have
    # no data and a diagonal forcing keeps them identically zero
    spec = dirichlet_spec(count=8)
    obs = observe(np.array([1.0, -0.5]), np.zeros(2), 0.1, 2, seed=41)
    cfg = manual_cfg(spec.eig, B_N=60.0, N=2)  # retains lam <= 60: 7 modes
    field = regularized_solve(spec, obs, cfg, 8)
    assert cfg.P_retained == 7
    assert field.coeffs.shape == (9, 7)
    assert np.max(np.abs(field.coeffs[:, 2:])) == 0.0
    assert np.max(np.abs(field.coeffs[:, :2])) > 0.0
