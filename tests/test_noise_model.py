import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from fracreg.errors import DomainError
from fracreg.noise_model import (
    _normals_from_words,
    mise_bound_check,
    monte_carlo,
    observe,
    replicate_seed,
    standard_normals,
)
from fracreg.spectral import EigenSystem, pad


def test_observation_is_reproducible_bitwise():
    u0 = np.array([1.0, 0.5, 0.25])
    a = observe(u0, np.zeros(3), 0.1, 8, seed=77)
    b = observe(u0, np.zeros(3), 0.1, 8, seed=77)
    assert np.array_equal(a.obs0, b.obs0)
    assert np.array_equal(a.obs1, b.obs1)
    c = observe(u0, np.zeros(3), 0.1, 8, seed=78)
    assert not np.array_equal(a.obs0, c.obs0)


def test_observation_tiny_eps_recovers_coefficients():
    u0 = np.array([2.0, -1.0])
    obs = observe(u0, u0, 1e-300, 4, seed=1)
    assert np.max(np.abs(obs.obs0[:2] - u0)) < 1e-290
    assert np.max(np.abs(obs.obs0[2:])) < 1e-290


def test_observation_noise_moments():
    obs = observe(np.zeros(1), np.zeros(1), 1.0, 1000, seed=5)
    m = float(np.mean(obs.obs0))
    v = float(np.var(obs.obs0))
    assert abs(m) < 4.0 / math.sqrt(1000)
    assert 0.85 <= v <= 1.15


def test_shared_noise_switch():
    obs = observe(np.zeros(2), np.zeros(2), 0.5, 6, seed=3, shared_noise=True)
    assert np.array_equal(obs.obs0, obs.obs1)
    ind = observe(np.zeros(2), np.zeros(2), 0.5, 6, seed=3)
    assert not np.array_equal(ind.obs0, ind.obs1)
    # stream 0 is the same in both models
    assert np.array_equal(obs.obs0, ind.obs0)


def test_noise_whiteness_covariance():
    R, N = 2000, 8
    draws = np.stack([standard_normals(replicate_seed(11, r), 0, N) for r in range(R)])
    cov = draws.T @ draws / R
    assert np.max(np.abs(cov - np.eye(N))) < 5.0 / math.sqrt(R)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1), order=st.permutations(range(12)))
def test_replicate_streams_do_not_depend_on_order(seed, order):
    # replicate r's seed and normals are a function of (seed, r) alone, so
    # drawing the replicates in any order gives the same values
    in_order = [standard_normals(replicate_seed(seed, r), 0, 5) for r in range(12)]
    shuffled = {r: standard_normals(replicate_seed(seed, r), 0, 5) for r in order}
    for r in range(12):
        assert np.array_equal(shuffled[r], in_order[r])


def test_observe_unrolls_definition():
    obs = observe(np.array([1.0]), np.zeros(1), 0.1, 4, seed=9)
    d0 = obs.obs0
    xi = standard_normals(9, 0, 4)
    want = 0.1 * xi
    want[0] += 1.0
    assert np.allclose(d0, want, atol=0, rtol=1e-15)
    assert d0.shape == (4,)


def test_truncated_noise_energy_matches_eps2N():
    # noise-only data: E ||U_N||^2 = eps^2 N
    eps, N, R = 0.3, 12, 4000
    sample = lambda seeds: (np.sum(observe(np.zeros(1), np.zeros(1), eps, N, seeds).obs0 ** 2,
                                   axis=-1),)
    [(mean, se)] = monte_carlo(sample, R, 123)
    assert abs(mean - eps * eps * N) <= 4 * se


def sq_dist_sample(truth, eps, N):
    """Replicate sample: squared distance of the N noisy coefficients from
    the truth, zero-padded (unobserved modes are zero)."""
    width = max(truth.size, N)

    def sample(seeds):
        d = pad(observe(truth, np.zeros(1), eps, N, seeds).obs0, width) - pad(truth, width)
        return (np.sum(d * d, axis=-1),)

    return sample


def test_monte_carlo_reduces_each_quantity_as_its_own_column():
    # each quantity is reduced as a contiguous 1-D array (pairwise summation);
    # an axis=0 reduction of the (R, 2) block rounds differently
    R = 64
    draw = lambda seeds: standard_normals(seeds, 0, 2) * [1.0, 1e3] + [0.5, 7.0]
    sample = lambda seeds: draw(seeds).T  # one strided length-R column per quantity
    for seed in range(8):
        values = np.array([draw(replicate_seed(seed, r)) for r in range(R)])
        want = [(float(np.mean(col)), float(np.std(col, ddof=1) / math.sqrt(R)))
                for col in (values[:, 0].copy(), values[:, 1].copy())]
        assert monte_carlo(sample, R, seed) == want


def test_mise_mc_exact_estimator_is_zero():
    truth = np.array([1.0, 2.0, 3.0])
    sample = lambda seeds: (np.sum((truth - truth) ** 2) * np.ones(len(seeds)),)
    [(mean, se)] = monte_carlo(sample, 16, 4)
    assert mean == 0.0
    assert se == 0.0


def test_mise_mc_matches_analytic_expectation():
    # estimator = truncated noisy data of u0 with c_p = p^-2, N = 8, eps = 0.05
    P, N, eps = 64, 8, 0.05
    u0 = np.arange(1, P + 1, dtype=float) ** -2.0
    [(mean, se)] = monte_carlo(sq_dist_sample(u0, eps, N), replicates=10_000, seed=2024)
    analytic = eps * eps * N + float(np.sum(u0[N:] ** 2))
    assert abs(mean - analytic) <= 4 * se


def test_mise_mc_std_err_scaling():
    u0 = np.arange(1, 17, dtype=float) ** -2.0
    sample = sq_dist_sample(u0, 0.1, 8)
    [(_, se1)] = monte_carlo(sample, replicates=400, seed=6)
    [(_, se4)] = monte_carlo(sample, replicates=1600, seed=6)
    # quadrupling replicates halves the standard error (1/sqrt(R) scaling)
    assert se4 == pytest.approx(se1 / 2.0, rel=0.2)


def test_mise_mc_deterministic():
    # N = 4 observations of a two-mode truth: the padding runs the other way
    sample = sq_dist_sample(np.array([1.0, 0.3]), 0.2, 4)
    a = monte_carlo(sample, replicates=64, seed=99)
    b = monte_carlo(sample, replicates=64, seed=99)
    assert a == b


def test_mise_bound_check_cases():
    eig = EigenSystem.dirichlet_laplace_1d(10_000)
    # support inside 1..N: analytic is exactly eps^2 N
    u0 = np.array([1.0, 0.5, 0.0])
    analytic, bound = mise_bound_check(u0, 0.5, 0.1, 8, eig)
    assert analytic == pytest.approx(0.01 * 8, rel=1e-14)
    assert analytic <= bound

    # c_p = p^-2 tail vs the H^{2 gamma} bound, series out to p = 10^4
    c = np.arange(1, 10_001, dtype=float) ** -2.0
    analytic, bound = mise_bound_check(c, 0.5, 0.05, 8, eig)
    tail = float(np.sum(c[8:] ** 2))
    assert analytic == pytest.approx(0.05**2 * 8 + tail, rel=1e-12)
    assert analytic <= bound

    # eps -> 0 limit: pure bias (run with a tiny but positive eps)
    analytic, bound = mise_bound_check(c, 0.5, 1e-300, 8, eig)
    assert analytic == pytest.approx(tail, rel=1e-12)
    assert analytic <= bound

    # a smoothness weight past float range leaves no bound to check against
    with pytest.raises(DomainError), np.errstate(over="ignore"):
        mise_bound_check(c[:64], 200.0, 0.05, 8, eig)


def test_validation_errors():
    with pytest.raises(DomainError):
        observe(np.zeros(2), np.zeros(2), 0.0, 4, seed=1)
    with pytest.raises(DomainError):
        observe(np.zeros(2), np.zeros(2), 0.1, 0, seed=1)
    with pytest.raises(DomainError):
        monte_carlo(lambda s: (0.0,), replicates=1, seed=1)


@settings(max_examples=50, deadline=None)
@given(
    seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=6),
    stream=st.integers(min_value=0, max_value=2),
    n=st.integers(min_value=0, max_value=37),
)
def test_reset_stream_draws_what_a_fresh_philox_draws(seeds, stream, n):
    # one generator serves a batch, its key, counter and buffer reset per
    # stream; each row must be the draw of a fresh Philox(key=(seed, stream))
    block = standard_normals(seeds, stream, n)
    assert block.shape == (len(seeds), n)
    for seed, row in zip(seeds, block):
        fresh = np.random.Generator(np.random.Philox(key=np.array([seed, stream], np.uint64)))
        want = ndtri((fresh.integers(0, 1 << 53, size=n).astype(np.float64) + 0.5) / 2.0**53)
        assert np.array_equal(row, want)
        assert np.array_equal(standard_normals(seed, stream, n), want)


def test_extreme_words_give_finite_normals():
    # (k + 0.5) / 2^53 rounds to 1.0 at the top word alone, where ndtri is
    # inf; that word is clamped below 1.0, and its neighbours keep their bits
    top = (1 << 53) - 1
    k = np.array([0, 1, 1 << 52, top - 1, top], dtype=np.int64)
    z = _normals_from_words(k)
    assert np.all(np.isfinite(z))
    assert z[-1] == ndtri(np.nextafter(1.0, 0.0)) and z[-1] > z[-2] > 0.0
    assert z[0] == ndtri(2.0**-54) < 0.0
    for word, got in zip(k[:-1], z[:-1]):
        assert got == ndtri((float(word) + 0.5) / 2.0**53)


@pytest.mark.parametrize("shared_noise", [False, True])
def test_observe_batch_rows_equal_single_seed_draws(shared_noise):
    seeds = [replicate_seed(31, r) for r in range(5)]
    u0, u1 = np.array([1.0, -0.5, 0.25]), np.array([0.2, 0.1])
    batch = observe(u0, u1, 0.05, 6, seeds, shared_noise=shared_noise)
    assert batch.obs0.shape == batch.obs1.shape == (5, 6)
    assert batch.seed == tuple(seeds)
    for r, seed in enumerate(seeds):
        one = observe(u0, u1, 0.05, 6, seed, shared_noise=shared_noise)
        assert np.array_equal(batch.obs0[r], one.obs0)
        assert np.array_equal(batch.obs1[r], one.obs1)


def test_monte_carlo_needs_one_value_per_replicate():
    with pytest.raises(DomainError, match="8 values per quantity"):
        monte_carlo(lambda seeds: (np.zeros(len(seeds) - 1),), replicates=8, seed=1)
