import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from fracreg.errors import BUDGET, DomainError, check_budget
from fracreg.spectral import EigenSystem, hq_norm, power_law


def test_eigensystem_dirichlet_is_squares():
    eig = EigenSystem.dirichlet_laplace_1d(10)
    assert np.array_equal(eig.eigenvalues, np.arange(1.0, 11.0) ** 2)
    assert eig.lam(3) == 9.0
    assert eig.lam(10) == 100.0


@pytest.mark.parametrize("make, law", [(EigenSystem.dirichlet_laplace_1d, "p**2"),
                                       (lambda n: power_law(n, 2.0), "p**-2")],
                         ids=["dirichlet", "power_law"])
def test_modes_past_the_desk_scale_budget_are_refused_before_any_allocation(make, law):
    # 10^12 modes, 8 TB: a missing check fails at once, and fills nothing
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=rf"^a power law {re.escape(law)} of 1000000000000 "
                                              r"doubles exceeds the desk-scale limit of "
                                              r"134217728 \(1 GiB\)$"):
            make(10**12)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    # the budget is 2^27 doubles, itself allowed
    check_budget(BUDGET, "the budget")
    with pytest.raises(DomainError, match=r"^one past exceeds"):
        check_budget(BUDGET + 1, "one past")


@pytest.mark.parametrize("make", [EigenSystem.dirichlet_laplace_1d, lambda n: power_law(n, 2.0)],
                         ids=["dirichlet", "power_law"])
def test_spectrum_builders_peak_at_their_array(make):
    # the power is raised in place; only boolean masks ride along
    make(10**6)
    tracemalloc.start()
    try:
        make(10**6)
        assert tracemalloc.get_traced_memory()[1] <= 1.25 * 8 * 10**6
    finally:
        tracemalloc.stop()


def test_eigensystem_ordering_enforced():
    with pytest.raises(DomainError):
        EigenSystem([1.0, 0.5, 2.0])
    with pytest.raises(DomainError):
        EigenSystem([-1.0, 2.0])
    eig = EigenSystem([1.0, 1.0, 2.0])
    assert eig.count == 3 and eig.lam(3) == 2.0


@pytest.mark.parametrize(
    "eig", [EigenSystem.dirichlet_laplace_1d(3), EigenSystem([1.0, 1.0, 2.0])],
    ids=["dirichlet", "values"],
)
def test_lam_past_the_stored_eigenvalues_asks_for_eig_count(eig):
    # a spectrum is its stored values: nothing is extrapolated past them
    with pytest.raises(DomainError, match="mode 4 is past the 3 stored eigenvalues; raise eig_count"):
        eig.lam(4)
    with pytest.raises(DomainError, match="mode index must be >= 1"):
        eig.lam(0)


def test_hq_norm_cases():
    eig = EigenSystem.dirichlet_laplace_1d(8)
    rng = np.random.default_rng(5)
    c = rng.normal(size=8)
    # q = 0 must equal the L2 norm bit for bit
    assert hq_norm(c, 0.0, eig) == float(np.sqrt(np.sum(c * c)))
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


def test_l2_norm_values():
    # The L2 norm is the H^q norm at q = 0.
    eig = EigenSystem.dirichlet_laplace_1d(12)
    assert hq_norm(np.array([3.0, 4.0]), 0.0, eig) == 5.0
    assert hq_norm(np.array([]), 0.0, eig) == 0.0
    assert hq_norm(np.zeros(7), 0.0, eig) == 0.0
    # Parseval: the coefficient norm equals the quadrature norm of the
    # synthesized field sum_p c_p sqrt(2/pi) sin(p y) on a Simpson grid.
    rng = np.random.default_rng(1)
    c = rng.normal(size=12)
    n = 1025
    y = np.linspace(0.0, math.pi, n)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (math.pi / (n - 1)) / 3.0
    modes = np.arange(1, c.size + 1)
    f = math.sqrt(2.0 / math.pi) * (c @ np.sin(np.outer(modes, y)))
    quad_norm = math.sqrt(float(np.sum(w * f * f)))
    assert hq_norm(c, 0.0, eig) == pytest.approx(quad_norm, abs=1e-8)


def test_hq_norm_monotone_in_q():
    eig = EigenSystem.dirichlet_laplace_1d(16)
    rng = np.random.default_rng(9)
    c = rng.normal(size=16)
    qs = [0.0, 0.5, 1.0, 2.0, 3.0]
    vals = [hq_norm(c, q, eig) for q in qs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_hq_norm_of_rows_is_the_norm_of_each_row():
    eig = EigenSystem.dirichlet_laplace_1d(16)
    rows = np.random.default_rng(2).normal(size=(7, 11))
    for q in (0.0, 0.5, 2.0):
        norms = hq_norm(rows, q, eig)
        assert norms.shape == (7,)
        assert [float(x) for x in norms] == [hq_norm(row, q, eig) for row in rows]
    with pytest.raises(DomainError):
        hq_norm(np.ones((2, 2, 2)), 0.0, eig)
