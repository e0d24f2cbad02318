import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fracreg import mild_solver
from fracreg.errors import DomainError, NoConvergence
from fracreg.mild_solver import (
    InitialData,
    NonlinearitySpec,
    ProblemSpec,
    manufacture,
    solve_mild,
)
from fracreg.mild_solver import (
    _kernel_tables,
    _problem_tables,
    _volterra_product,
)
from fracreg.mittag_leffler import (
    calibrate_growth_constants,
    kernel_double_primitive,
    kernel_primitive,
    ml,
)
from fracreg.spectral import EigenSystem

from oracles import max_row_l2, volterra_reference

# Frozen mpmath series values (oracles.ml_reference, 60 digits).
E_15_1_AT_1 = 1.9394872614337489665
E_15_2_AT_1 = 1.3462484622959249550
GBAR_C3 = calibrate_growth_constants(1.5, 1.0).C3


def linear_spec(beta=1.5, a=1.0, count=16):
    eig = EigenSystem.dirichlet_laplace_1d(count)
    return ProblemSpec(beta, a, eig, NonlinearitySpec.damped(0.0))


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
    E1, E2t, _, _ = _kernel_tables(beta, 1.0, spec.eig.eigenvalues, M)
    assert field.coeffs.tobytes() == (E1.T * data.u0 + E2t.T * data.u1).tobytes()
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


def volterra_step(spec, p, g_history, t_i):
    """Product-quadrature value of the mode-p Volterra integral over [0, t_i]:
    row n of L_p on the n-cell grid, from the solver's weight table, applied
    to the forcing history ``g_history`` (n + 1 values)."""
    n = len(g_history) - 1
    _, _, C, W0 = _kernel_tables(spec.beta, t_i, np.array([spec.eig.lam(p)]), n)
    # row n of L_p: [W0[n], C[n-1], ..., C[0]]
    return float(np.concatenate((W0[0, n:], C[0, n - 1 :: -1])) @ g_history)


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
    C = _kernel_tables(1.5, 1.0, lam, 16)[2]
    K = (1.0 + lam[0]) / C[0, 0]  # C[p, 0] is the diagonal of L_p below row 0
    spec = ProblemSpec(1.5, 1.0, EigenSystem.dirichlet_laplace_1d(2), NonlinearitySpec.damped(K))
    with pytest.raises(NoConvergence) as info, np.errstate(all="ignore"):
        solve_mild(spec, InitialData(np.array([1.0, 0.0]), np.zeros(2)), P=2, M=16)
    assert not np.isfinite(info.value.residual)


def test_singular_step_in_a_later_block_fails_the_residual_check():
    # a gbar constant C3 that makes the diagonal entry 1 - C[p, 0] m_p(t_i) of
    # one mode's triangular system exactly zero at row 40, in the second
    # block: that block has no solution, and the solve must end in
    # NoConvergence with a nonfinite residual, not in a LinAlgError
    beta, P, M, i0, p = 1.5, 4, 64, 40, 1
    eig = EigenSystem.dirichlet_laplace_1d(P)
    lam = eig.eigenvalues
    t = np.linspace(0.0, 1.0, M + 1)
    C0 = _kernel_tables(beta, 1.0, lam, M)[2][p, 0]
    C3 = math.exp(lam[p] ** (1.0 / beta) * (t[i0] - 1.0)) * C0 / 2.0
    for _ in range(64):  # step to the neighbouring doubles until the entry is 0.0
        nl = NonlinearitySpec.gbar(C3)
        step = 1.0 - C0 * nl.multiplier(beta, 1.0, lam, t)[i0, p]
        if step == 0.0:
            break
        C3 = float(np.nextafter(C3, math.inf if step < 0.0 else 0.0))
    assert step == 0.0
    assert i0 > mild_solver._BLOCK
    F1 = _problem_tables(beta, 1.0, tuple(lam.tolist()), M, nl)[0]
    assert np.all(np.isfinite(F1[:, : mild_solver._BLOCK + 1])) and not np.isfinite(F1[p, i0])
    spec = ProblemSpec(beta, 1.0, eig, nl)
    with pytest.raises(NoConvergence) as info, np.errstate(all="ignore"):
        solve_mild(spec, InitialData(np.ones(P), np.zeros(P)), P=P, M=M)
    assert not np.isfinite(info.value.residual)


def row_substitution_reference(beta, a, lam, M, source):
    """The exact responses ``(F1, F2)`` by forward substitution one row at a
    time, one length-i dot per row, vectorised over modes and both
    right-hand sides: the solver's substitution before it became block-wise."""
    E1, E2t, C, W0 = _kernel_tables(beta, a, lam, M)
    m = source.multiplier(beta, a, lam, np.linspace(0.0, a, M + 1))
    H = np.stack([E1, E2t], axis=1)  # (P, 2, M+1)
    F = np.empty_like(H)
    mF = np.empty_like(H)
    F[:, :, 0] = H[:, :, 0]
    mF[:, :, 0] = m[0][:, None] * F[:, :, 0]
    # Row i of L_p left of its diagonal C[p, 0] is [W0[p, i], C[p, i-1], ..., C[p, 1]]:
    # row[:, M-i:M] while row[:, M-i] holds W0[:, i], since row[:, M-l] = C[:, l].
    row = C[:, ::-1].copy()
    for i in range(1, M + 1):
        row[:, M - i] = W0[:, i]
        rhs = H[:, :, i] + (mF[:, :, :i] @ row[:, M - i : M, None])[:, :, 0]
        row[:, M - i] = C[:, i]
        F[:, :, i] = rhs / (1.0 - C[:, 0] * m[i])[:, None]
        mF[:, :, i] = m[i][:, None] * F[:, :, i]
    return F[:, 0], F[:, 1]


@pytest.mark.parametrize("M", [16, 97, 512, 2048])
@pytest.mark.parametrize("beta", [1.2, 1.5, 1.8])
@pytest.mark.parametrize("kind", ["damped", "gbar"])
def test_block_substitution_matches_row_substitution(kind, beta, M):
    # one block, a partial last block, and many blocks: the block-wise
    # responses agree with the row-by-row ones to rounding, per mode
    P = 8
    lam = EigenSystem.dirichlet_laplace_1d(P).eigenvalues
    nl = NonlinearitySpec.damped(0.5) if kind == "damped" else NonlinearitySpec.gbar(
        calibrate_growth_constants(beta, 1.0).C3
    )
    got = _problem_tables(beta, 1.0, tuple(lam.tolist()), M, nl)[:2]
    for table, want in zip(got, row_substitution_reference(beta, 1.0, lam, M, nl)):
        assert np.all(np.abs(table - want) <= 1e-13 * np.max(np.abs(want), axis=1)[:, None])


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
    E1, E2t, _, _ = _kernel_tables(beta, a, lam, M)
    H = E1.T * data.u0 + E2t.T * data.u1
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
    _, _, C, W0 = _kernel_tables(beta, 1.0, lam, M)
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
    _, _, C, W0 = _kernel_tables(beta, 1.0, lam, M)
    L = dense_weights_reference(beta, 1.0, lam, M)
    G = np.random.default_rng(M).normal(size=(M + 1, P))
    want = np.einsum("pij,jp->ip", L, G)
    got = _volterra_product(C, W0, G.T).T
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
    _problem_tables.cache_clear()
    tracemalloc.start()
    try:
        solve_mild(spec, data, P=P, M=M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    # the solve's one miss, then one hit: F1, F2, A1, A2
    tables = _problem_tables(beta, 1.0, tuple(eig.eigenvalues.tolist()), M, spec.nonlinearity)
    assert _problem_tables.cache_info()[:2] == (1, 1)
    assert sum(x.nbytes for x in tables) == 4 * P * (M + 1) * 8


def test_equal_sources_share_one_table():
    # the table cache is keyed on the source, so equal sources built apart
    # must hit it
    eig = EigenSystem.dirichlet_laplace_1d(4)
    data = InitialData(np.ones(4), np.zeros(4))
    _problem_tables.cache_clear()
    for nl in (NonlinearitySpec.damped(0.02), NonlinearitySpec("damped", 0.02, 0.0)):
        solve_mild(ProblemSpec(1.5, 1.0, eig, nl), data, P=4, M=16)
    assert _problem_tables.cache_info()[:2] == (1, 1)


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


@pytest.mark.parametrize("beta, P, M", [(1.8, 8, 97), (1.8, 14, 300)])
def test_block_solve_matches_dense_solve(beta, P, M):
    # a partial last block, and many blocks at a field of order 1e6: the
    # reference is each mode's dense triangular system solved on its own
    C3 = calibrate_growth_constants(beta, 1.0).C3
    eig = EigenSystem.dirichlet_laplace_1d(P)
    lam = eig.eigenvalues
    data = InitialData(0.01 * np.ones(P), np.zeros(P))
    exact = solve_mild(ProblemSpec(beta, 1.0, eig, NonlinearitySpec.gbar(C3)), data, P=P, M=M)
    want, _ = dense_solve_reference(beta, 1.0, lam, M, gbar_multiplier(beta, 1.0, C3, lam, M), data)
    assert np.max(np.abs(exact.coeffs - want)) <= 1e-13 * np.max(np.abs(want))


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
    data, field = manufacture(spec, P=1, decay=2.0, u1_scale=0.0, M=16)
    assert data.u0[0] == 1.0 and data.u1[0] == 0.0
    for i, t in enumerate(field.t_grid):
        want = ml(1.5, 1.0, float(t) ** 1.5).value
        assert field.coeffs[i, 0] == pytest.approx(want, abs=1e-9 * max(1, want))


def test_manufacture_four_modes_is_superposition_of_closed_forms():
    spec = linear_spec()
    data, field = manufacture(spec, P=4, decay=2.0, u1_scale=0.0, M=16)
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
        ProblemSpec(1.0, 1.0, eig, NonlinearitySpec.damped(0.0))
    with pytest.raises(DomainError):
        ProblemSpec(2.0, 1.0, eig, NonlinearitySpec.damped(0.0))
    for a in (0.0, math.inf, math.nan, 1e300):  # 1e300**1.5 overflows
        with pytest.raises(DomainError, match="horizon a"):
            ProblemSpec(1.5, a, eig, NonlinearitySpec.damped(0.0))
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            NonlinearitySpec.damped(bad)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            NonlinearitySpec.gbar(bad)
    for bad in (math.inf, math.nan):  # damped ignores C3, but a NaN would miss the table cache
        with pytest.raises(DomainError):
            NonlinearitySpec("damped", 0.5, bad)
    for kind in ("zero", "lipschitz"):
        with pytest.raises(DomainError):
            NonlinearitySpec(kind=kind)


@pytest.mark.parametrize("M", [0, (1 << 16) + 1, 10**8])
def test_grid_beyond_the_desk_scale_limit_is_refused_before_any_table(monkeypatch, M):
    # a cold table costs O(P M^2) time and a 10^8-step grid gigabytes per
    # array, so the step count is refused before anything is allocated
    def no_tables(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(mild_solver, "_problem_tables", no_tables)
    spec = ProblemSpec(1.5, 1.0, EigenSystem.dirichlet_laplace_1d(2), NonlinearitySpec.damped(0.0))
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=rf"M must be in 1\.\.65536, .* got {M}$"):
            solve_mild(spec, InitialData(np.ones(2), np.zeros(2)), P=2, M=M)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_field_beyond_the_desk_scale_budget_is_refused_before_any_table(monkeypatch):
    # illposed at 4096 replicates and M = 2^16 would return 4096 x 65537 x 14
    # doubles, 30 GB: the batch is refused before anything is allocated
    def no_tables(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(mild_solver, "_problem_tables", no_tables)
    spec = ProblemSpec(1.8, 1.0, EigenSystem.dirichlet_laplace_1d(14), NonlinearitySpec.damped(0.0))
    data = InitialData(np.ones((4096, 14)), np.zeros((4096, 14)))
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=r"\(4096 fields x 65537 rows x 14 modes\) exceeds "
                                              r"the desk-scale limit of 134217728 \(1 GiB\)$"):
            solve_mild(spec, data, P=14, M=1 << 16)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("nl, P, M", [(NonlinearitySpec.gbar(GBAR_C3), 8, 2048),
                                      (NonlinearitySpec.damped(0.5), 200, 64),
                                      (NonlinearitySpec.damped(0.5), 2000, 8),
                                      (NonlinearitySpec.gbar(GBAR_C3), 11, 128),
                                      (NonlinearitySpec.damped(0.5), 64, 1024),
                                      (NonlinearitySpec.damped(0.5), 8, 8192)])
def test_cold_table_build_stays_under_its_charge(monkeypatch, nl, P, M):
    # the kernel tables and one Mittag-Leffler sweep dominate at large M and
    # the in-block arrays at small M; lam_p = p, as with --eig-kind linear
    charged = []

    def record(doubles, what):
        charged.append(doubles)

    monkeypatch.setattr(mild_solver, "check_budget", record)
    lams = tuple(np.arange(1.0, P + 1).tolist())
    _problem_tables.cache_clear()
    tracemalloc.start()
    try:
        _problem_tables(1.5, 1.0, lams, M, nl)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _problem_tables.cache_clear()
    assert len(charged) == 1 and peak <= 8 * charged[0]


def test_table_build_past_the_desk_scale_budget_is_refused_before_any_table(monkeypatch):
    # 15,000 modes at M = 1024: a field of one row passes, its tables do not
    def no_tables(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(mild_solver, "_kernel_tables", no_tables)
    spec = ProblemSpec(1.5, 1.0, EigenSystem(np.arange(1.0, 15001.0)), NonlinearitySpec.damped(0.0))
    data = InitialData(np.ones(15000), np.zeros(15000))
    with pytest.raises(DomainError, match=r"^the solver tables of 15000 modes x 1024 steps "
                                          r"\(peak \d+ doubles\) exceeds the desk-scale limit"):
        solve_mild(spec, data, P=15000, M=1024, rows=[1024])


@pytest.mark.parametrize("M", [0, -3, (1 << 15) + 1, 40000])
def test_manufacture_names_the_callers_grid(monkeypatch, M):
    # the reference is solved at 2M: the refusal names M, not 2M
    def no_tables(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(mild_solver, "_problem_tables", no_tables)
    spec = ProblemSpec(1.5, 1.0, EigenSystem.dirichlet_laplace_1d(4), NonlinearitySpec.damped(0.0))
    with pytest.raises(DomainError, match=rf"M must be in 1\.\.32768, got {M}: the reference is "
                                          r"solved at 2M"):
        manufacture(spec, 4, 2.0, 0.3, M)


@pytest.mark.parametrize("rows", [None, [12, 0, 16, 5]])
@pytest.mark.parametrize("shape", [(3,), (4, 3)])
def test_no_mode_is_one_zero_width_solve(monkeypatch, shape, rows):
    # P = 0 takes the one solve path: a zero-width field on the whole grid,
    # at the rows asked for, with a zero residual per field
    calls = []
    picard = mild_solver._picard_solve

    def spy(*args):
        calls.append(args)
        return picard(*args)

    monkeypatch.setattr(mild_solver, "_picard_solve", spy)
    spec = ProblemSpec(1.5, 1.0, EigenSystem.dirichlet_laplace_1d(3), NonlinearitySpec.damped(0.02))
    field = solve_mild(spec, InitialData(np.ones(shape), np.zeros(shape)), P=0, M=16, rows=rows)
    assert len(calls) == 1
    assert field.coeffs.shape == shape[:-1] + (17 if rows is None else len(rows), 0)
    assert field.coeffs.flags.c_contiguous
    assert field.picard_diffs.shape == shape[:-1] + (1,)
    assert np.all(field.picard_diffs == 0.0)
    assert np.array_equal(field.t_grid, np.linspace(0.0, 1.0, 17))


@pytest.mark.parametrize("P", [-1, 4])
def test_mode_count_outside_the_spectrum_is_refused(P):
    spec = ProblemSpec(1.5, 1.0, EigenSystem.dirichlet_laplace_1d(3), NonlinearitySpec.damped(0.0))
    with pytest.raises(DomainError, match=rf"P must be in 0\.\.3, got {P}$"):
        solve_mild(spec, InitialData(np.ones(3), np.zeros(3)), P=P, M=16)


def test_gbar_multiplier_is_contractive_coefficient_map():
    # the construction nonlinearity is mode-wise linear with multiplier
    # exp(lam^(1/beta)(t-a)) / (2 a C3) <= 1/(2 a C3), so its Lipschitz
    # constant in the coefficient L2 norm is at most that; spot-check on
    # random pairs through the solver's multiplier
    beta, a, P = 1.5, 1.0, 6
    lam = EigenSystem.dirichlet_laplace_1d(P).eigenvalues
    t = np.linspace(0.0, a, 9)
    C3 = calibrate_growth_constants(beta, a).C3
    m = NonlinearitySpec.gbar(C3).multiplier(beta, a, lam, t)
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
    m = NonlinearitySpec.damped(K).multiplier(1.5, 1.0, lam, np.array([0.3]))[0]
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


def test_one_bad_residual_fails_a_batched_solve(monkeypatch):
    # a zero field has residual exactly 0 and passes any tolerance; the
    # nonzero field's rounding residual is above 1e-20, so the batch must fail
    monkeypatch.setattr(mild_solver, "DEFAULT_TOL", 1e-20)
    spec = ProblemSpec(1.5, 1.0, EigenSystem.dirichlet_laplace_1d(6), NonlinearitySpec.damped(0.5))
    rng = np.random.default_rng(3)
    u0 = np.zeros((3, 6))
    u0[1] = rng.normal(size=6)
    zero = solve_mild(spec, InitialData(u0[0], u0[0]), P=6, M=32)
    assert zero.picard_diffs[0] == 0.0
    with pytest.raises(NoConvergence, match="field 1") as info:
        solve_mild(spec, InitialData(u0, np.zeros((3, 6))), P=6, M=32)
    assert 0.0 < info.value.residual


@pytest.mark.parametrize("rows", [None, 4])
@pytest.mark.parametrize(
    "kind, beta, P, M",
    [("damped", 1.5, 7, 128), ("damped", 1.5, 4, 16), ("gbar", 1.8, 9, 64), ("gbar", 1.8, 8, 1024)],
)
def test_recorded_residual_is_the_direct_residual(kind, beta, P, M, rows):
    # the solve evaluates L(m U) as L(m F1) u0 + L(m F2) u1 from its cached
    # tables; it must record the residual H + L(m U) - U that convolving the
    # field itself gives
    nl = NonlinearitySpec.damped(0.02) if kind == "damped" else NonlinearitySpec.gbar(
        calibrate_growth_constants(beta, 1.0).C3
    )
    spec = ProblemSpec(beta, 1.0, EigenSystem.dirichlet_laplace_1d(P), nl)
    shape = (P,) if rows is None else (rows, P)
    rng = np.random.default_rng(M + P)
    data = InitialData(rng.normal(size=shape), rng.normal(size=shape))
    field = solve_mild(spec, data, P=P, M=M)
    assert field.picard_diffs.shape == shape[:-1] + (1,)
    E1, E2t, C, W0 = _kernel_tables(beta, 1.0, spec.eig.eigenvalues, M)
    m = nl.multiplier(beta, 1.0, spec.eig.eigenvalues, np.linspace(0.0, 1.0, M + 1))
    U = field.coeffs.reshape(-1, M + 1, P)
    c0, c1 = data.u0.reshape(-1, P), data.u1.reshape(-1, P)
    for r, got in enumerate(field.picard_diffs.reshape(-1)):
        want = max_row_l2(E1.T * c0[r] + E2t.T * c1[r] + _volterra_product(C, W0, (m * U[r]).T).T
                          - U[r])
        assert abs(got - want) <= 1e-14 * max(1.0, max_row_l2(U[r]))


@pytest.mark.parametrize("table", [0, 2], ids=["F1", "A1"])
def test_perturbed_table_fails_the_next_solve(table):
    # one entry of a cached response F1, or of the cached right-hand side
    # A1, off by 1e-6 relative at the field's largest entry: every field whose
    # u0 reaches that mode must fail the check, and the error names the first
    spec = ProblemSpec(1.5, 1.0, EigenSystem.dirichlet_laplace_1d(6), NonlinearitySpec.damped(0.5))
    u0 = np.random.default_rng(5).normal(size=(3, 6))
    u0[0, 5] = 0.0
    data = InitialData(u0, np.zeros((3, 6)))
    _problem_tables.cache_clear()
    try:
        solve_mild(spec, data, P=6, M=32)
        lams = tuple(spec.eig.eigenvalues.tolist())
        _problem_tables(1.5, 1.0, lams, 32, spec.nonlinearity)[table][5, 32] *= 1.0 + 1e-6
        with pytest.raises(NoConvergence, match="field 1") as info:
            solve_mild(spec, data, P=6, M=32)
        assert info.value.residual > 1e-10
    finally:
        _problem_tables.cache_clear()


def test_warm_batched_solve_memory_is_a_few_fields():
    # the converge shape: 64 fields, M = 128, P = 7.  The check's batch
    # temporaries must stay a few fields' worth, whatever the batch size;
    # a solve that returns one row checks every row in well under one field
    eig = EigenSystem.dirichlet_laplace_1d(64)
    spec = ProblemSpec(1.5, 1.0, eig, NonlinearitySpec.damped(0.02))
    rng = np.random.default_rng(64)
    data = InitialData(rng.normal(size=(64, 7)), np.zeros((64, 7)))
    solve_mild(spec, data, P=7, M=128)
    peaks, shapes = [], []
    for rows in (None, [32]):
        tracemalloc.start()
        try:
            field = solve_mild(spec, data, P=7, M=128, rows=rows)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        shapes.append(field.coeffs.shape)
    assert shapes == [(64, 129, 7), (64, 1, 7)]
    one_field = 64 * 129 * 7 * 8
    assert peaks[0] <= 3.5 * one_field
    assert peaks[1] <= 0.4 * one_field


# Grid rows of an M = 64 solve: unsorted, unevenly spaced, both ends included.
SOME_ROWS = [40, 0, 17, 64, 3]


@pytest.mark.parametrize("batch", [(), (5,)], ids=["single", "batched"])
@pytest.mark.parametrize("nl", [NonlinearitySpec.damped(0.5), NonlinearitySpec.gbar(GBAR_C3)],
                         ids=["damped", "gbar"])
def test_row_subset_solve_is_the_full_solve_at_those_rows(nl, batch):
    # the rows a caller names, in its order, with the bits of the whole
    # field's rows and the whole field's residual; both fields in C order,
    # since a sum over the modes rounds by the memory order of that axis
    spec = ProblemSpec(1.5, 1.0, EigenSystem.dirichlet_laplace_1d(6), nl)
    rng = np.random.default_rng(len(batch) + 11)
    data = InitialData(rng.normal(size=batch + (6,)), rng.normal(size=batch + (6,)))
    full = solve_mild(spec, data, P=6, M=64)
    some = solve_mild(spec, data, P=6, M=64, rows=SOME_ROWS)
    assert some.coeffs.shape == batch + (len(SOME_ROWS), 6)
    assert np.array_equal(some.coeffs, full.coeffs[..., SOME_ROWS, :])
    assert np.array_equal(some.picard_diffs, full.picard_diffs)
    assert np.array_equal(some.t_grid, full.t_grid)
    assert full.coeffs.flags.c_contiguous and some.coeffs.flags.c_contiguous


def test_batched_row_subset_residuals_equal_single_solves():
    # the converge shape: each field's residual has the bits of its own solve
    spec = ProblemSpec(1.5, 1.0, EigenSystem.dirichlet_laplace_1d(64), NonlinearitySpec.damped(0.02))
    rng = np.random.default_rng(7)
    u0, u1 = rng.normal(size=(64, 7)), rng.normal(size=(64, 7))
    batch = solve_mild(spec, InitialData(u0, u1), P=7, M=128, rows=[32])
    for r in range(64):
        one = solve_mild(spec, InitialData(u0[r], u1[r]), P=7, M=128)
        assert np.array_equal(batch.coeffs[r], one.coeffs[[32]])
        assert np.array_equal(batch.picard_diffs[r], one.picard_diffs)


@pytest.mark.parametrize("rows", [[], [65], [-1], [[3]], [1.0], [True], 4],
                         ids=["empty", "past-M", "negative", "2-D", "float", "bool", "scalar"])
def test_rows_must_be_grid_rows(rows):
    spec = linear_spec(count=4)
    with pytest.raises(DomainError, match=r"rows must be a non-empty list of grid rows in 0\.\.64"):
        solve_mild(spec, unit_data(4, 1), P=4, M=64, rows=rows)


@pytest.mark.parametrize("table", [0, 2], ids=["F1", "A1"])
def test_perturbed_table_fails_a_solve_that_skips_its_row(table):
    # as test_perturbed_table_fails_the_next_solve, with the perturbed row
    # 32, the last of the grid, among the rows the solve does not return:
    # the check still reads it
    spec = ProblemSpec(1.5, 1.0, EigenSystem.dirichlet_laplace_1d(6), NonlinearitySpec.damped(0.5))
    u0 = np.random.default_rng(5).normal(size=(3, 6))
    u0[0, 5] = 0.0
    data = InitialData(u0, np.zeros((3, 6)))
    rows = [31, 0, 16, 8, 24]
    assert 32 not in rows
    _problem_tables.cache_clear()
    try:
        solve_mild(spec, data, P=6, M=32, rows=rows)
        lams = tuple(spec.eig.eigenvalues.tolist())
        _problem_tables(1.5, 1.0, lams, 32, spec.nonlinearity)[table][5, 32] *= 1.0 + 1e-6
        with pytest.raises(NoConvergence, match="field 1") as info:
            solve_mild(spec, data, P=6, M=32, rows=rows)
        assert info.value.residual > 1e-10
    finally:
        _problem_tables.cache_clear()


def test_field_that_overflows_past_its_returned_rows_fails():
    # u1 alone on a mode with lam = 1e4, whose velocity response t E(1.5,2;
    # lam t^1.5) grows to about 1e198 at t = 1: row 0 is exactly zero
    # (it is 0 at t = 0), and the late rows pass 1.8e308.  The full solve
    # fails, and so must a solve that returns row 0 alone.
    spec = ProblemSpec(1.5, 1.0, EigenSystem(np.array([1.0, 1e4])), NonlinearitySpec.damped(0.0))
    data = InitialData(np.zeros(2), np.array([0.0, 1e120]))
    with pytest.raises(NoConvergence), np.errstate(over="ignore", invalid="ignore"):
        solve_mild(spec, data, P=2, M=32)
    with pytest.raises(NoConvergence, match="field 0 overflowed"):
        solve_mild(spec, data, P=2, M=32, rows=[0])
    # fields in range whose squares are not: a field of 1e-200 on the grown
    # mode, whose table squares overflow, returns its zero row 0, and a
    # field of 1e200 is checked against a finite tolerance
    small = solve_mild(spec, InitialData(np.zeros(2), np.array([0.0, 1e-200])), P=2, M=32,
                       rows=[0])
    assert small.coeffs.tolist() == [[0.0, 0.0]]
    big = solve_mild(spec, InitialData(np.array([1e200]), np.zeros(1)), P=1, M=32)
    assert big.picard_diffs[0] <= 1e-10 * np.max(np.abs(big.coeffs))
