import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln

import fracreg.mittag_leffler as mlmod

from fracreg.errors import DomainError
from fracreg.mittag_leffler import (
    _REL_TOL,
    SERIES_TERM_CAP,
    GrowthConstants,
    calibrate_growth_constants,
    kernel_double_primitive,
    kernel_primitive,
    ml,
    ml_values,
)

from oracles import ml_reference

# Frozen oracle values (mpmath series, 60 digits; see oracles.ml_reference).
E_15_1_AT_1 = 1.9394872614337489665
E_15_2_AT_1 = 1.3462484622959249550
E_15_15_AT_2 = 2.5483367190728557478
KP_15_4_1 = 1.8349298810174488  # kernel primitive, beta=1.5, lam=4, s=1


def test_exponential_identity():
    v = ml(1.0, 1.0, 1.0, tol=1e-12)
    assert abs(v.value - math.e) <= 1e-12 * math.e
    assert v.est_abs_err <= 1e-12


def test_cosh_identity_series():
    v = ml(2.0, 1.0, 4.0, tol=1e-12)
    assert v.value == pytest.approx(math.cosh(2.0), rel=1e-12)


def test_series_against_high_precision_oracle():
    v = ml(1.5, 1.5, 2.0, tol=1e-12)
    assert v.value == pytest.approx(E_15_15_AT_2, rel=1e-12)
    assert abs(v.value - E_15_15_AT_2) <= v.est_abs_err + 1e-13 * E_15_15_AT_2


def test_series_error_bound_is_honest():
    rng = np.random.default_rng(7)
    for _ in range(50):
        beta = rng.uniform(0.3, 2.0)
        gamma = rng.uniform(0.3, 3.0)
        z = rng.uniform(0.0, 20.0)
        if z ** (1 / beta) > 25.0:  # keeps the oracle's raw sum short
            continue
        got = ml(beta, gamma, z, tol=1e-9)
        ref = ml_reference(beta, gamma, z)
        assert abs(got.value - ref) <= got.est_abs_err + 1e-12 * abs(ref)
        # all series terms are nonnegative, so the first term is a floor
        assert got.value >= 1.0 / math.gamma(gamma) - got.est_abs_err


def test_series_rejects_arguments_beyond_its_reach():
    # x = z**(1/beta) ~ 4000: the terms overflow long before the tail
    # bound could be met, so the argument is outside the forced series'
    # domain; that must surface as DomainError at once, without a numpy
    # overflow warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows"):
            ml(0.5, 1.0, 63.3**2, tol=1e-8)


def test_unrepresentable_value_is_domain_error():
    # x = 1e5**(1/1.5) ~ 2154: exp(x) overflows double
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            ml(1.5, 1.0, 1e5)
        with pytest.raises(DomainError):
            ml_values(1.5, 1.0, np.array([1.0, 1e5]))
        # x = 711: every term is finite but their sum is not
        with pytest.raises(DomainError, match="floating-point range"):
            ml(1.0, 1.0, 711.0)


def test_ml_identity_grid():
    rng = np.random.default_rng(20260810)
    zs = rng.uniform(0.0, 30.0, size=200)
    for z in zs:
        e = ml(1.0, 1.0, z).value
        assert abs(e - math.exp(z)) <= 1e-10 * math.exp(z)
        c = ml(2.0, 1.0, z).value
        assert abs(c - math.cosh(math.sqrt(z))) <= 1e-10 * math.cosh(math.sqrt(z))
        if z > 0:
            f = ml(1.0, 2.0, z).value
            want = math.expm1(z) / z
            assert abs(f - want) <= 1e-10 * abs(want)


def test_ml_at_zero_is_reciprocal_gamma():
    assert ml(0.5, 0.5, 0.0).value == pytest.approx(1.0 / math.gamma(0.5), rel=1e-14)
    assert ml(1.7, 3.2, 0.0).value == pytest.approx(1.0 / math.gamma(3.2), rel=1e-14)


def test_ml_e12_at_3_closed_form():
    assert ml(1.0, 2.0, 3.0).value == pytest.approx((math.e**3 - 1) / 3, rel=1e-12)


def test_ml_monotone_in_z():
    rng = np.random.default_rng(11)
    for beta, gamma in [(1.2, 1.0), (1.5, 1.5), (0.7, 2.0), (1.9, 1.9)]:
        z = np.sort(rng.uniform(0.0, 30.0, size=200))
        vals, _ = ml_values(beta, gamma, z)
        # spacing below ~1e-6 is not resolvable at the evaluation accuracy
        keep = np.diff(z) >= 1e-6
        assert np.all(np.diff(vals)[keep] >= -1e-12 * vals[1:][keep])


def test_ml_domain_errors():
    with pytest.raises(DomainError):
        ml(1.5, 1.0, -0.1)
    with pytest.raises(DomainError):
        ml(2.5, 1.0, 1.0)
    with pytest.raises(DomainError):
        ml(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        ml(1.5, 0.0, 1.0)
    with pytest.raises(DomainError):
        ml(1.5, -2.0, 1.0)


def test_asymptotic_dominance_ratio():
    # |beta * E(beta,1;z) * exp(-z^(1/beta)) - 1| < 0.05 far out
    for beta in (1.2, 1.5, 1.8):
        for z in np.linspace(50.0, 200.0, 31):
            ratio = beta * ml(beta, 1.0, float(z)).value * math.exp(-z ** (1.0 / beta))
            assert abs(ratio - 1.0) < 0.05


def test_large_z_against_oracle():
    # large arguments vs the raw high-precision series
    for beta, gamma, z in [(1.5, 1.0, 50.0), (1.2, 1.0, 130.0), (1.8, 1.8, 300.0),
                           (1.1, 2.1, 60.0), (2.0, 1.0, 700.0)]:
        got = ml(beta, gamma, z).value
        ref = ml_reference(beta, gamma, z)
        assert got == pytest.approx(ref, rel=5e-13)


def test_series_against_oracle_up_to_x_650():
    # the one path is the series at every z: rounding grows with
    # x = z**(1/beta), and its worst over this grid is about 6.3e-13
    xs = np.array([0.5, 2.0, 10.0, 24.9, 25.1, 50.0, 100.0, 200.0, 400.0, 650.0])
    for beta in (1.1, 1.2, 1.5, 1.8, 1.95, 2.0):
        for gamma in (1.0, 2.0, beta, beta + 1.0, beta + 2.0):
            z = xs**beta
            vals, _ = ml_values(beta, gamma, z)
            for zi, vi in zip(z, vals):
                ref = ml_reference(beta, gamma, float(zi), dps=40)
                assert abs(vi - ref) <= 1e-12 * ref, (beta, gamma, zi)


def test_small_z_with_large_gamma_against_oracle():
    # the relative stop reads the running total, a lower bound on the value;
    # an a-priori estimate of the value's size would overstate it here, where
    # z < 1 and gamma > 1, and stop the sum early
    for beta, gamma, x in [(1.0, 10.0, 0.1), (1.5, 3.5, 0.1), (0.05, 10.0, 0.1)]:
        z = x**beta
        ref = ml_reference(beta, gamma, z, dps=40)
        assert abs(ml(beta, gamma, z).value - ref) <= 1e-12 * ref, (beta, gamma)


@pytest.mark.parametrize("shape", [(0,), (0, 3)])
def test_empty_input_gives_empty_output(shape):
    vals, errs = ml_values(1.5, 1.0, np.empty(shape))
    assert vals.shape == shape and errs.shape == shape


def test_ml_values_matches_scalar():
    z = np.array([0.0, 0.3, 2.0, 24.9**1.5, 26.0**1.5, 400.0])
    vals, errs = ml_values(1.5, 1.0, z)
    for zi, vi in zip(z, vals):
        assert vi == pytest.approx(ml(1.5, 1.0, float(zi)).value, rel=1e-12)
    assert np.all(errs >= 0) and np.all(np.isfinite(errs))


def _series_full_table(beta, gamma, z, tol=None):
    """The power series as it was with the whole log-Gamma table built up
    front, stopping at ``tol`` or at ``_REL_TOL`` times the running total:
    the reference the chunked table must reproduce bit for bit."""
    n = z.size
    total = np.full(n, math.exp(-math.lgamma(gamma)))
    comp = np.zeros(n)
    if n == 0:
        return total, np.zeros(n)
    pos = z > 0.0
    if not np.any(pos):
        return total, np.zeros(n)
    lnz = np.where(pos, np.log(np.where(pos, z, 1.0)), -np.inf)
    lg = gammaln(beta * np.arange(SERIES_TERM_CAP + 2) + gamma)

    def term(k):
        return np.where(pos, np.exp(k * lnz - lg[k]), 0.0)

    t_k = term(1)
    for k in range(1, SERIES_TERM_CAP):
        y = t_k - comp
        t = total + y
        comp = (t - total) - y
        total = t
        r_next = z * math.exp(lg[k + 1] - lg[k + 2])
        t_k = term(k + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            tail = np.where(r_next < 1.0, t_k / (1.0 - r_next), np.inf)
        bound = _REL_TOL * total if tol is None else tol
        if np.all(~pos | ((r_next < 1.0) & (tail <= bound))):
            return total, np.where(pos, tail, 0.0)
    raise AssertionError("reference series did not converge")


@pytest.mark.parametrize("beta,gamma", [(1.5, 1.0), (1.1, 0.3), (1.8, 2.5), (1.5, 3.5)])
def test_chunked_log_gamma_table_is_bit_identical(beta, gamma, monkeypatch):
    # x = z**(1/beta) from 0 to 40; the 0-d calls stop after few terms and
    # the tol= call, out to x = 80, runs past several table chunks
    z = np.linspace(0.0, 40.0, 41) ** beta
    calls = [(z, None), (np.linspace(0.0, 80.0, 9) ** beta, 1e-12)]
    calls += [(np.float64(zi), None) for zi in z]
    got = [ml_values(beta, gamma, zz, tol) for zz, tol in calls]
    monkeypatch.setattr(mlmod, "_series", _series_full_table)
    want = [ml_values(beta, gamma, zz, tol) for zz, tol in calls]
    for (v, e), (wv, we) in zip(got, want):
        assert v.tobytes() == wv.tobytes()
        assert e.tobytes() == we.tobytes()


def test_kernel_primitive_closed_forms():
    # lam = 0 collapses to s^beta / Gamma(beta+1)
    assert kernel_primitive(1.5, 0.0, 2.0) == pytest.approx(
        2.0**1.5 / math.gamma(2.5), rel=1e-12
    )
    assert kernel_primitive(1.2, 9.0, 0.0) == 0.0
    assert kernel_primitive(1.5, 4.0, 1.0) == pytest.approx(KP_15_4_1, rel=1e-9)


def test_kernel_primitive_matches_quadrature():
    # the references are kernel_primitive_reference at dps = 25, written by
    # tests/make_kernel_primitive_table.py at these same 100 draws
    table = json.loads((Path(__file__).parent / "kernel_primitive_table.json").read_text())
    assert table["dps"] == 25 and len(table["rows"]) == 100
    rng = np.random.default_rng(3)
    for beta_t, lam_t, s_t, ref in table["rows"]:
        beta = rng.uniform(1.05, 1.95)
        lam = rng.uniform(0.0, 30.0)
        s = rng.uniform(0.05, 2.0)
        assert (beta_t, lam_t, s_t) == (beta, lam, s)
        got = kernel_primitive(beta, lam, s)
        assert got == pytest.approx(ref, rel=1e-8)


def test_kernel_double_primitive_is_integral_of_primitive():
    # d/ds [double primitive] = primitive; check by central differences
    beta, lam = 1.4, 3.0
    for s in (0.4, 1.1):
        h = 1e-5
        deriv = (
            kernel_double_primitive(beta, lam, s + h)
            - kernel_double_primitive(beta, lam, s - h)
        ) / (2 * h)
        assert deriv == pytest.approx(kernel_primitive(beta, lam, s), rel=1e-7)


def test_kernel_primitive_domain():
    with pytest.raises(DomainError):
        kernel_primitive(1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        kernel_primitive(2.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        kernel_primitive(1.5, -1.0, 1.0)


def growth_ratio_grids(beta, lams, ts):
    """The three normalized growth ratios on the tensor grid lams x ts.

    Rows index ``lams``, columns ``ts``:

    * ``E(beta,1; lam t^beta) / exp(lam^(1/beta) t)``
    * ``t E(beta,2; lam t^beta) / ((1 + lam^(-1/beta)) exp(lam^(1/beta) t))``
    * ``t^(beta-1) E(beta,beta; lam t^beta) / exp(lam^(1/beta) t)``
    """
    lams = np.asarray(lams, dtype=float)
    ts = np.asarray(ts, dtype=float)
    z = lams[:, None] * ts[None, :] ** beta
    damp = np.exp(-(lams[:, None] ** (1.0 / beta)) * ts[None, :])

    e1, _ = ml_values(beta, 1.0, z)
    e2, _ = ml_values(beta, 2.0, z)
    e3, _ = ml_values(beta, beta, z)

    r1 = e1 * damp
    r2 = ts[None, :] * e2 * damp / (1.0 + lams[:, None] ** (-1.0 / beta))
    r3 = ts[None, :] ** (beta - 1.0) * e3 * damp
    return r1, r2, r3


def calibrate_c1_c2(beta, a):
    """The envelope constants ``C1``, ``C2`` of the first two growth ratios,
    calibrated like ``C3``: reference-grid supremum times the headroom."""
    lams = np.arange(1, mlmod._GROWTH_LAM_MAX + 1, dtype=float)
    ts = np.linspace(0.0, a, mlmod._GROWTH_TIMES)
    r1, r2, _ = growth_ratio_grids(beta, lams, ts)
    return float(r1.max()) * mlmod._GROWTH_HEADROOM, float(r2.max()) * mlmod._GROWTH_HEADROOM


def test_growth_bounds_calibrated_then_validated():
    # Constants calibrated on the reference grid must dominate an
    # independent validation grid with zero violations.
    for beta in (1.1, 1.5, 1.9):
        gc = calibrate_growth_constants(beta, 1.0)
        assert isinstance(gc, GrowthConstants)
        C1, C2 = calibrate_c1_c2(beta, 1.0)
        lams = np.arange(1, 401, dtype=float)
        ts = np.linspace(0.0, 1.0, 101)
        r1, r2, r3 = growth_ratio_grids(beta, lams, ts)
        assert float(r1.max()) <= C1
        assert float(r2.max()) <= C2
        assert float(r3.max()) <= gc.C3


# repr(calibrate_growth_constants(beta, a).C3), recorded with numpy 2.4.6 and
# scipy 1.17.1, which is now a test oracle only; C3 scales the illposed
# source, so a moved bit moves its reports
C3_BITS = {
    (1.1, 0.5): 0.8910166898323928,
    (1.1, 1.0): 0.9067217486910975,
    (1.1, 2.0): 0.9125441723328711,
    (1.5, 0.5): 0.567350980749941,
    (1.5, 1.0): 0.6371159019223328,
    (1.5, 2.0): 0.66516737692621,
    (1.8, 0.5): 0.40359864425411646,
    (1.8, 1.0): 0.5050740730474156,
    (1.8, 2.0): 0.5509315311425691,
    (1.9, 0.5): 0.35861454909959234,
    (1.9, 1.0): 0.46844117800211393,
    (1.9, 2.0): 0.5206640274170247,
}


@pytest.mark.parametrize("beta, a", sorted(C3_BITS))
def test_growth_constant_bits_are_pinned(beta, a):
    assert calibrate_growth_constants(beta, a).C3 == C3_BITS[(beta, a)]


@pytest.mark.parametrize("beta, a", [(0.9, 1.0), (2.0, 1.0), (1.5, 0.0)])
def test_growth_constant_rejects_bad_input_on_every_call(beta, a):
    for _ in range(2):
        with pytest.raises(DomainError):
            calibrate_growth_constants(beta, a)


def test_growth_calibration_is_one_cached_sweep(monkeypatch):
    sweeps = []

    def counting(*args, **kwargs):
        sweeps.append(args)
        return ml_values(*args, **kwargs)

    monkeypatch.setattr(mlmod, "ml_values", counting)
    calibrate_growth_constants.cache_clear()
    first = calibrate_growth_constants(1.7, 0.75)
    assert [s[:2] for s in sweeps] == [(1.7, 1.7)]
    assert np.shape(sweeps[0][2]) == (400, 201)
    assert calibrate_growth_constants(1.7, 0.75) is first
    assert len(sweeps) == 1
