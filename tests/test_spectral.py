import math
import warnings

import numpy as np
import pytest

from fracreg.errors import DomainError, ResolutionError
from fracreg.spectral import (
    BasisKind,
    EigenSystem,
    SpatialGrid,
    basis_eval,
    hq_norm,
    l2_norm,
    project,
    synthesize,
)

# Frozen sympy oracle: int_0^pi y(pi-y) sqrt(2/pi) sin(p y) dy = 4*sqrt(2/pi)*(1-(-1)^p)/(2 p^3)
PARABOLA_C1 = 3.1915382432114616  # 4*sqrt(2)/sqrt(pi)
PARABOLA_C3 = 0.11820512011894302  # 4*sqrt(2)/(27*sqrt(pi))


@pytest.fixture(scope="module")
def grid():
    return SpatialGrid.simpson(1025)


def test_eigensystem_dirichlet_is_squares():
    eig = EigenSystem.dirichlet_laplace_1d(10)
    assert eig.basis_kind is BasisKind.DIRICHLET_LAPLACE_1D
    assert np.array_equal(eig.eigenvalues, np.arange(1.0, 11.0) ** 2)
    assert eig.lam(3) == 9.0
    assert eig.lam(100) == 10000.0  # closed form past the stored range


def test_eigensystem_ordering_enforced():
    with pytest.raises(DomainError):
        EigenSystem.from_eigenvalues([1.0, 0.5, 2.0])
    with pytest.raises(DomainError):
        EigenSystem.from_eigenvalues([-1.0, 2.0])
    eig = EigenSystem.from_eigenvalues([1.0, 1.0, 2.0])
    with pytest.raises(DomainError):
        eig.lam(4)  # no extrapolation for user-supplied spectra


def test_simpson_grid_weights_sum_to_pi(grid):
    assert abs(float(grid.weights.sum()) - math.pi) < 1e-12
    with pytest.raises(DomainError):
        SpatialGrid.simpson(10)  # even count


def test_basis_eval_values():
    assert basis_eval(1, math.pi / 2) == pytest.approx(math.sqrt(2 / math.pi), rel=1e-14)
    assert basis_eval(2, math.pi / 2) == pytest.approx(0.0, abs=1e-15)
    assert basis_eval(3, 0.7) == pytest.approx(
        math.sqrt(2 / math.pi) * math.sin(2.1), rel=1e-14
    )
    with pytest.raises(DomainError):
        basis_eval(1, -0.1)
    with pytest.raises(DomainError):
        basis_eval(1, math.pi + 0.1)


def test_orthonormality_gram_matrix(grid):
    P = 16
    table = np.array([basis_eval(p, grid.points) for p in range(1, P + 1)])
    gram = (table * grid.weights) @ table.T
    assert np.max(np.abs(gram - np.eye(P))) < 1e-8


def test_project_recovers_basis_function(grid):
    f = basis_eval(3, grid.points)
    c = project(f, grid, 5)
    want = np.zeros(5)
    want[2] = 1.0
    assert np.max(np.abs(c - want)) < 1e-8


def test_project_zero(grid):
    assert np.array_equal(project(np.zeros(grid.size), grid, 4), np.zeros(4))


def test_project_parabola_matches_symbolic_oracle(grid):
    y = grid.points
    c = project(y * (math.pi - y), grid, 3)
    assert c[0] == pytest.approx(PARABOLA_C1, rel=1e-10)
    assert c[1] == pytest.approx(0.0, abs=1e-10)
    assert c[2] == pytest.approx(PARABOLA_C3, rel=1e-8)


def test_project_resolution_guard(grid):
    with pytest.raises(ResolutionError):
        project(np.zeros(grid.size), grid, 65)  # needs 16*65+1 > 1025 points


def test_synthesize_single_mode(grid):
    s = synthesize(np.array([1.0]), grid)
    i = np.argmin(np.abs(grid.points - math.pi / 2))
    assert s[i] == pytest.approx(basis_eval(1, grid.points[i]), rel=1e-14)
    assert np.array_equal(synthesize(np.zeros(8), grid), np.zeros(grid.size))


def test_project_synthesize_round_trip(grid):
    rng = np.random.default_rng(42)
    c = rng.normal(size=16)
    back = project(synthesize(c, grid), grid, 16)
    assert np.max(np.abs(back - c)) < 1e-8


def test_l2_norm_values(grid):
    assert l2_norm(np.array([3.0, 4.0])) == 5.0
    assert l2_norm(np.array([])) == 0.0
    assert l2_norm(np.zeros(7)) == 0.0
    rng = np.random.default_rng(1)
    c = rng.normal(size=12)
    f = synthesize(c, grid)
    quad_norm = math.sqrt(float(np.sum(grid.weights * f * f)))
    assert l2_norm(c) == pytest.approx(quad_norm, abs=1e-8)


def test_hq_norm_cases():
    eig = EigenSystem.dirichlet_laplace_1d(8)
    rng = np.random.default_rng(5)
    c = rng.normal(size=8)
    # q = 0 must equal the L2 norm bit for bit
    assert hq_norm(c, 0.0, eig) == l2_norm(c)
    e1 = np.zeros(4)
    e1[0] = 1.0
    assert hq_norm(e1, 2.0, eig) == 1.0  # lam_1 = 1
    e3 = np.zeros(4)
    e3[2] = 1.0
    assert hq_norm(e3, 1.0, eig) == 3.0  # lam_3 = 9
    with pytest.raises(DomainError):
        hq_norm(c, -0.5, eig)
    # lam_8^300 = 64^300 overflows: an error, not an inf with a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            hq_norm(c, 300.0, eig)


def test_hq_norm_monotone_in_q():
    eig = EigenSystem.dirichlet_laplace_1d(16)
    rng = np.random.default_rng(9)
    c = rng.normal(size=16)
    qs = [0.0, 0.5, 1.0, 2.0, 3.0]
    vals = [hq_norm(c, q, eig) for q in qs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
