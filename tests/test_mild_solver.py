import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fracreg.errors import DomainError, NoConvergence
from fracreg.mild_solver import (
    InitialData,
    NonlinearitySpec,
    ProblemSpec,
    manufacture,
    power_law_profile,
    solve_mild,
    volterra_step,
)
from fracreg.mild_solver import _multiplier, _response_tables, _solver_tables, _volterra_product
from fracreg.mittag_leffler import (
    calibrate_growth_constants,
    kernel_double_primitive,
    kernel_primitive,
    ml,
)
from fracreg.spectral import EigenSystem

from oracles import volterra_reference

# Frozen mpmath series values (oracles.ml_reference, 60 digits).
E_15_1_AT_1 = 1.9394872614337489665
E_15_2_AT_1 = 1.3462484622959249550
GBAR_C3 = calibrate_growth_constants(1.5, 1.0).C3


def linear_spec(beta=1.5, a=1.0, count=16):
    return ProblemSpec(beta, a, EigenSystem.dirichlet_laplace_1d(count), NonlinearitySpec.zero())


def l2(c):
    """Parseval norm sqrt(sum c_p^2)."""
    return float(np.sqrt(np.sum(c * c)))


def unit_data(count, p, where="u0"):
    u0 = np.zeros(count)
    u1 = np.zeros(count)
    (u0 if where == "u0" else u1)[p - 1] = 1.0
    return InitialData(u0, u1)


def test_zero_forcing_solve_against_oracle():
    spec = linear_spec(beta=1.5)
    got0 = solve_mild(spec, unit_data(1, 1), P=1, M=8)
    assert got0.t_grid[-1] == 1.0
    assert got0.coeffs[-1, 0] == pytest.approx(E_15_1_AT_1, rel=1e-12)
    got1 = solve_mild(spec, unit_data(1, 1, where="u1"), P=1, M=8)
    assert got1.coeffs[-1, 0] == pytest.approx(E_15_2_AT_1, rel=1e-12)


@pytest.mark.parametrize("beta, P, M", [(1.5, 4, 64), (1.8, 14, 128)])
def test_zero_forcing_is_the_homogeneous_solution(beta, P, M):
    # no forcing is the diagonal map with multiplier 0: its exact solve must
    # return E1*u0 + E2t*u1 itself, with a zero residual
    spec = linear_spec(beta=beta, count=P)
    rng = np.random.default_rng(P)
    data = InitialData(rng.normal(size=P), rng.normal(size=P))
    field = solve_mild(spec, data, P=P, M=M)
    E1, E2t, _, _ = _solver_tables(beta, 1.0, tuple(spec.eig.eigenvalues.tolist()), M)
    assert field.coeffs.tobytes() == (E1 * data.u0 + E2t * data.u1).tobytes()
    assert field.picard_diffs.tolist() == [0.0]


def test_solve_mild_single_mode_closed_form():
    spec = linear_spec()
    field = solve_mild(spec, unit_data(4, 1), P=4, M=32)
    for i, t in enumerate(field.t_grid):
        want = ml(1.5, 1.0, float(t) ** 1.5).value
        assert field.coeffs[i, 0] == pytest.approx(want, abs=1e-9 * max(1, want))
    assert np.max(np.abs(field.coeffs[:, 1:])) == 0.0


def test_solve_mild_velocity_mode_closed_form():
    spec = linear_spec()
    field = solve_mild(spec, unit_data(4, 2, where="u1"), P=4, M=32)
    for i, t in enumerate(field.t_grid):
        want = float(t) * ml(1.5, 2.0, 4.0 * float(t) ** 1.5).value
        assert field.coeffs[i, 1] == pytest.approx(want, abs=1e-9 * max(1, want))


def test_row_zero_equals_initial_data_exactly():
    spec = linear_spec()
    rng = np.random.default_rng(2)
    data = InitialData(rng.normal(size=6), rng.normal(size=6))
    field = solve_mild(spec, data, P=6, M=16)
    assert np.array_equal(field.coeffs[0], data.u0)


def test_linear_superposition():
    spec = linear_spec()
    rng = np.random.default_rng(3)
    a = InitialData(rng.normal(size=5), rng.normal(size=5))
    b = InitialData(rng.normal(size=5), rng.normal(size=5))
    ab = InitialData(a.u0 + b.u0, a.u1 + b.u1)
    fa = solve_mild(spec, a, P=5, M=16)
    fb = solve_mild(spec, b, P=5, M=16)
    fab = solve_mild(spec, ab, P=5, M=16)
    assert np.max(np.abs(fab.coeffs - (fa.coeffs + fb.coeffs))) < 1e-9


def test_mode_decoupling_for_zero_forcing():
    spec = linear_spec()
    base = solve_mild(spec, unit_data(5, 1), P=5, M=16)
    bumped_data = unit_data(5, 1)
    u0 = bumped_data.u0.copy()
    u0[2] += 0.7
    bumped = solve_mild(spec, InitialData(u0, bumped_data.u1), P=5, M=16)
    delta = bumped.coeffs - base.coeffs
    assert np.max(np.abs(delta[:, [0, 1, 3, 4]])) == 0.0
    assert np.max(np.abs(delta[:, 2])) > 0.0


def test_volterra_step_zero_history():
    spec = linear_spec()
    assert volterra_step(spec, 1, np.zeros(17), 1.0) == 0.0


def test_volterra_step_constant_history_is_kernel_primitive():
    spec = linear_spec()
    got = volterra_step(spec, 2, np.ones(33), 1.0)
    assert got == pytest.approx(kernel_primitive(1.5, 4.0, 1.0), rel=1e-12)


def test_volterra_step_against_quadrature_oracle():
    spec = linear_spec()
    g = lambda eta: math.cos(3.0 * eta)
    ref = volterra_reference(1.5, 4.0, 1.0, g)
    n = 256
    hist = np.cos(3.0 * np.linspace(0.0, 1.0, n + 1))
    got = volterra_step(spec, 2, hist, 1.0)
    assert got == pytest.approx(ref, abs=4e-5)


def test_volterra_quadrature_second_order():
    spec = linear_spec()
    g = lambda eta: math.cos(3.0 * eta)
    ref = volterra_reference(1.5, 4.0, 1.0, g)
    errs = []
    Ms = [32, 64, 128, 256]
    for n in Ms:
        hist = np.cos(3.0 * np.linspace(0.0, 1.0, n + 1))
        errs.append(abs(volterra_step(spec, 2, hist, 1.0) - ref))
    slope = np.polyfit(np.log(Ms), np.log(errs), 1)[0]
    assert -2.2 <= slope <= -1.8


def test_gbar_contraction_ratios():
    # the discrete map U -> H + L_p diag(m_p) U of every gbar mode is a
    # 1/2-contraction in the max norm, and the exact solve is its fixed point
    beta, a, P, M = 1.5, 1.0, 8, 64
    gc = calibrate_growth_constants(beta, a)
    eig = EigenSystem.dirichlet_laplace_1d(P)
    lam = eig.eigenvalues
    m = gbar_multiplier(beta, a, gc.C3, lam, M)
    data = InitialData(0.01 * np.ones(P), np.zeros(P))
    want, L = dense_solve_reference(beta, a, lam, M, m, data)
    contraction = max(np.max(np.sum(np.abs(L[p] * m[:, p]), axis=1)) for p in range(P))
    assert 0.0 < contraction <= 0.5
    exact = solve_mild(ProblemSpec(beta, a, eig, NonlinearitySpec.gbar(gc.C3)), data, P=P, M=M)
    assert np.max(np.abs(exact.coeffs - want)) <= 1e-9


@pytest.mark.parametrize("P", [4, 6, 8, 10, 12, 14])
def test_damped_exact_solve_matches_picard(P):
    # the converge shape: beta 1.5, Dirichlet spectrum, M = 128; the data
    # are damped by each mode's growth so that every mode stays of order one
    K = 0.02
    eig = EigenSystem.dirichlet_laplace_1d(64)
    lam = eig.eigenvalues
    rng = np.random.default_rng(P)
    damp = np.exp(-lam[:P] ** (1.0 / 1.5))
    data = InitialData(rng.normal(size=P) * damp, rng.normal(size=P) * damp)
    exact = solve_mild(ProblemSpec(1.5, 1.0, eig, NonlinearitySpec.damped(K)), data, P=P, M=128)
    m = np.broadcast_to(K / (1.0 + lam[:P]), (129, P))
    want, _ = dense_solve_reference(1.5, 1.0, lam[:P], 128, m, data)
    assert np.max(np.abs(exact.coeffs - want)) <= 1e-9
    assert len(exact.picard_diffs) == 1
    assert exact.picard_diffs[0] <= 1e-10


def test_exact_solve_residual_is_checked():
    # a multiplier that makes the triangular system singular at the first
    # step leaves a nonfinite field, which the residual check reports
    lam = EigenSystem.dirichlet_laplace_1d(2).eigenvalues
    C = _solver_tables(1.5, 1.0, tuple(lam.tolist()), 16)[2]
    K = (1.0 + lam[0]) / C[0, 0]  # C[p, 0] is the diagonal of L_p below row 0
    spec = ProblemSpec(1.5, 1.0, EigenSystem.dirichlet_laplace_1d(2), NonlinearitySpec.damped(K))
    with pytest.raises(NoConvergence) as info, np.errstate(all="ignore"):
        solve_mild(spec, InitialData(np.array([1.0, 0.0]), np.zeros(2)), P=2, M=16)
    assert not np.isfinite(info.value.residual)


def dense_weights_reference(beta, a, lam, M):
    """The dense (P, M+1, M+1) stack of product-integration weights, built
    by the np.where formula the solver used before its Toeplitz form."""
    t = np.linspace(0.0, a, M + 1)
    dt = a / M
    K1 = kernel_primitive(beta, lam[:, None], t[None, :])
    K2 = kernel_double_primitive(beta, lam[:, None], t[None, :])
    s_all = np.arange(M + 1, dtype=float) * dt
    WL = np.zeros_like(K1)
    WR = np.zeros_like(K1)
    dK1 = K1[:, 1:] - K1[:, :-1]
    T = s_all[None, 1:] * K1[:, 1:] - s_all[None, :-1] * K1[:, :-1] - (K2[:, 1:] - K2[:, :-1])
    WL[:, 1:] = (-s_all[None, :-1] * dK1 + T) / dt
    WR[:, :-1] = (s_all[None, 1:] * dK1 - T) / dt
    i = np.arange(M + 1)
    lag = i[:, None] - i[None, :]
    lag_c = np.clip(lag, 0, M)
    left = lag >= 1
    right = (lag >= 0) & (i[None, :] >= 1)
    return np.where(left[None, :, :], WL[:, lag_c], 0.0) + np.where(
        right[None, :, :], WR[:, lag_c], 0.0
    )


def dense_solve_reference(beta, a, lam, M, m, data):
    """Each mode's lower-triangular system (I - L_p diag(m_p)) U_p = H_p,
    built from the dense weights and solved by np.linalg.solve.  ``m`` is
    the (M+1, P) multiplier of the source on the grid."""
    E1, E2t, _, _ = _solver_tables(beta, a, tuple(lam.tolist()), M)
    H = E1 * data.u0 + E2t * data.u1
    L = dense_weights_reference(beta, a, lam, M)
    U = np.empty_like(H)
    for p in range(lam.size):
        U[:, p] = np.linalg.solve(np.eye(M + 1) - L[p] * m[:, p], H[:, p])
    return U, L


def gbar_multiplier(beta, a, C3, lam, M):
    t = np.linspace(0.0, a, M + 1)
    return np.exp(lam[None, :] ** (1.0 / beta) * (t[:, None] - a)) / (2.0 * a * C3)


TOEPLITZ_SHAPES = [(1.5, 14, 128), (1.8, 8, 512)]


@pytest.mark.parametrize("beta,P,M", TOEPLITZ_SHAPES)
def test_toeplitz_weights_reproduce_dense_stack(beta, P, M):
    lam = EigenSystem.dirichlet_laplace_1d(P).eigenvalues
    _, _, C, W0 = _solver_tables(beta, 1.0, tuple(lam.tolist()), M)
    L = dense_weights_reference(beta, 1.0, lam, M)
    i = np.arange(M + 1)
    lag = i[:, None] - i[None, :]
    toeplitz = (lag >= 0) & (i[None, :] >= 1)
    for p in range(P):
        dense = np.where(toeplitz, C[p, np.clip(lag, 0, M)], 0.0)
        dense[1:, 0] = W0[p, 1:]
        assert W0[p, 0] == 0.0 and L[p, 0, 0] == 0.0
        assert dense.tobytes() == L[p].tobytes()


@pytest.mark.parametrize("beta,P,M", TOEPLITZ_SHAPES)
def test_volterra_product_matches_dense_einsum(beta, P, M):
    lam = EigenSystem.dirichlet_laplace_1d(P).eigenvalues
    _, _, C, W0 = _solver_tables(beta, 1.0, tuple(lam.tolist()), M)
    L = dense_weights_reference(beta, 1.0, lam, M)
    G = np.random.default_rng(M).normal(size=(M + 1, P))
    want = np.einsum("pij,jp->ip", L, G)
    got = _volterra_product(C, W0, G)
    assert np.all(got[0] == 0.0) and np.all(want[0] == 0.0)
    gap = np.max(np.abs(got - want), axis=1)[1:]
    assert np.all(gap <= 1e-12 * np.max(np.abs(want), axis=1)[1:])


def test_cold_gbar_solve_memory_is_linear_in_grid():
    # the fine-grid shape: a dense (P, M+1, M+1) weight stack alone would be
    # 269 MB here
    beta, P, M = 1.8, 8, 2048
    eig = EigenSystem.dirichlet_laplace_1d(P)
    spec = ProblemSpec(beta, 1.0, eig, NonlinearitySpec.gbar(calibrate_growth_constants(beta, 1.0).C3))
    data = InitialData(0.01 * np.ones(P), np.zeros(P))
    _solver_tables.cache_clear()
    _response_tables.cache_clear()
    tracemalloc.start()
    try:
        solve_mild(spec, data, P=P, M=M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    tables = _solver_tables(beta, 1.0, tuple(eig.eigenvalues.tolist()), M)
    assert sum(x.nbytes for x in tables) == 4 * P * (M + 1) * 8


def test_exact_solve_of_large_field_matches_picard():
    # at beta 1.8 mode 14 grows to ~1e6, where rounding alone leaves a
    # residual near the absolute tol; the check scales with the field norm.
    # The reference is the dense solve of each mode's triangular system.
    beta, a = 1.8, 1.0
    gc = calibrate_growth_constants(beta, a)
    eig = EigenSystem.dirichlet_laplace_1d(14)
    lam = eig.eigenvalues
    data = InitialData(0.01 * np.ones(14), np.zeros(14))
    exact = solve_mild(ProblemSpec(beta, a, eig, NonlinearitySpec.gbar(gc.C3)), data, P=14, M=64)
    want, _ = dense_solve_reference(beta, a, lam, 64, gbar_multiplier(beta, a, gc.C3, lam, 64), data)
    scale = np.max(np.abs(want))
    assert scale > 1e5
    assert np.max(np.abs(exact.coeffs - want)) <= 1e-12 * scale


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["damped", "gbar"]),
    x=arrays(np.float64, (2, 6), elements=st.floats(-1.0, 1.0)),
    y=arrays(np.float64, (2, 6), elements=st.floats(-1.0, 1.0)),
)
def test_diagonal_solves_are_linear(kind, x, y):
    nl = NonlinearitySpec.damped(0.5) if kind == "damped" else NonlinearitySpec.gbar(GBAR_C3)
    spec = ProblemSpec(1.5, 1.0, EigenSystem.dirichlet_laplace_1d(6), nl)
    fx, fy, fxy = (solve_mild(spec, InitialData(*d), P=6, M=32).coeffs for d in (x, y, x + y))
    assert np.max(np.abs(fxy - (fx + fy))) <= 1e-9


def test_manufacture_single_mode_matches_closed_form():
    spec = linear_spec()
    data, field = manufacture(spec, P=1, profile=power_law_profile(2.0, 1), M=16)
    assert data.u0[0] == 1.0 and data.u1[0] == 0.0
    for i, t in enumerate(field.t_grid):
        want = ml(1.5, 1.0, float(t) ** 1.5).value
        assert field.coeffs[i, 0] == pytest.approx(want, abs=1e-9 * max(1, want))


def test_manufacture_four_modes_is_superposition_of_closed_forms():
    spec = linear_spec()
    data, field = manufacture(spec, P=4, profile=power_law_profile(2.0, 4), M=16)
    for p in range(1, 5):
        lam = float(p * p)
        amp = float(p) ** -2.0
        for i in (0, 8, 16, 32):
            t = float(field.t_grid[i])
            want = amp * ml(1.5, 1.0, lam * t**1.5).value
            assert field.coeffs[i, p - 1] == pytest.approx(want, abs=1e-9 * max(1, want))


def test_manufacture_self_convergence_small_lipschitz():
    # field at M vs 2M differ by a quadrature-level amount only
    spec = ProblemSpec(1.5, 1.0, EigenSystem.dirichlet_laplace_1d(4), NonlinearitySpec.damped(0.05))
    data = InitialData(np.array([1.0, 0.25, 0.1, 0.05]), np.zeros(4))
    f1 = solve_mild(spec, data, P=4, M=32)
    f2 = solve_mild(spec, data, P=4, M=64)
    gap = np.max(np.abs(f2.coeffs[::2] - f1.coeffs))
    assert gap < 1e-4  # O(dt^2) forcing interpolation, small K prefactor
    f3 = solve_mild(spec, data, P=4, M=128)
    gap2 = np.max(np.abs(f3.coeffs[::2] - f2.coeffs))
    assert gap2 < 0.3 * gap


def test_initial_slope_recovers_velocity():
    spec = linear_spec()
    data = InitialData(np.array([0.6, 0.0]), np.array([0.8, 0.3]))
    errs = []
    for M in (32, 64, 128):
        f = solve_mild(spec, data, P=2, M=M)
        dt = f.t_grid[1] - f.t_grid[0]
        slope = (f.coeffs[1] - f.coeffs[0]) / dt
        errs.append(l2(slope - data.u1))
    # convergence rate is dt^(beta-1) when u0 != 0, so just require decay
    assert errs[1] < 0.85 * errs[0]
    assert errs[2] < 0.85 * errs[1]


def test_problem_spec_validation():
    eig = EigenSystem.dirichlet_laplace_1d(2)
    with pytest.raises(DomainError):
        ProblemSpec(1.0, 1.0, eig, NonlinearitySpec.zero())
    with pytest.raises(DomainError):
        ProblemSpec(2.0, 1.0, eig, NonlinearitySpec.zero())
    for a in (0.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            ProblemSpec(1.5, a, eig, NonlinearitySpec.zero())
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            NonlinearitySpec.damped(bad)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            NonlinearitySpec.gbar(bad)
    for kind in ("zero", "lipschitz"):
        with pytest.raises(DomainError):
            NonlinearitySpec(kind=kind)


def test_gbar_multiplier_is_contractive_coefficient_map():
    # the construction nonlinearity is mode-wise linear with multiplier
    # exp(lam^(1/beta)(t-a)) / (2 a C3) <= 1/(2 a C3), so its Lipschitz
    # constant in the coefficient L2 norm is at most that; spot-check on
    # random pairs through the solver's multiplier
    beta, a, P = 1.5, 1.0, 6
    lam = EigenSystem.dirichlet_laplace_1d(P).eigenvalues
    t = np.linspace(0.0, a, 9)
    C3 = calibrate_growth_constants(beta, a).C3
    m = _multiplier("gbar", C3, beta, a, lam, t)
    assert m.shape == (9, P)
    rng = np.random.default_rng(17)
    bound = 1.0 / (2.0 * a * C3)
    for _ in range(20):
        v = rng.normal(size=(9, P))
        w = rng.normal(size=(9, P))
        for i in range(9):
            assert l2(m[i] * v[i] - m[i] * w[i]) <= bound * l2(v[i] - w[i]) * (1 + 1e-12)


def test_lipschitz_evaluator_spot_check():
    # the diagonal damped map used by the rate experiments obeys its
    # declared Lipschitz constant on random pairs, through the solver's
    # multiplier K / (1 + lam)
    K = 0.7
    lam = EigenSystem.dirichlet_laplace_1d(8).eigenvalues
    m = _multiplier("damped", K, 1.5, 1.0, lam, np.array([0.3]))[0]
    rng = np.random.default_rng(23)
    for _ in range(50):
        v = rng.normal(size=8)
        w = rng.normal(size=8)
        assert l2(m * v - m * w) <= K * l2(v - w) * (1 + 1e-12)


@pytest.mark.parametrize("nl", [NonlinearitySpec.damped(0.5), NonlinearitySpec.gbar(GBAR_C3)])
def test_batched_solve_rows_equal_single_solves(nl):
    # (R, P) data is R fields solved at once; row r has the bits of the
    # solve of data row r alone, residual included
    spec = ProblemSpec(1.5, 1.0, EigenSystem.dirichlet_laplace_1d(6), nl)
    rng = np.random.default_rng(8)
    u0, u1 = rng.normal(size=(5, 6)), rng.normal(size=(5, 6))
    batch = solve_mild(spec, InitialData(u0, u1), P=4, M=32)
    assert batch.coeffs.shape == (5, 33, 4)
    assert batch.picard_diffs.shape == (5, 1)
    for r in range(5):
        one = solve_mild(spec, InitialData(u0[r], u1[r]), P=4, M=32)
        assert np.array_equal(batch.coeffs[r], one.coeffs)
        assert np.array_equal(batch.picard_diffs[r], one.picard_diffs)


def test_one_bad_residual_fails_a_batched_solve():
    # a zero field has residual exactly 0 and passes any tol; the nonzero
    # field's rounding residual is above tol = 1e-20, so the batch must fail
    spec = ProblemSpec(1.5, 1.0, EigenSystem.dirichlet_laplace_1d(6), NonlinearitySpec.damped(0.5))
    rng = np.random.default_rng(3)
    u0 = np.zeros((3, 6))
    u0[1] = rng.normal(size=6)
    zero = solve_mild(spec, InitialData(u0[0], u0[0]), P=6, M=32, tol=1e-20)
    assert zero.picard_diffs[0] == 0.0
    with pytest.raises(NoConvergence, match="field 1") as info:
        solve_mild(spec, InitialData(u0, np.zeros((3, 6))), P=6, M=32, tol=1e-20)
    assert 0.0 < info.value.residual

