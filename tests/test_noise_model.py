import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from fracreg.errors import DomainError
from fracreg.noise_model import (
    _box_muller,
    _philox_words,
    mise_bound_check,
    monte_carlo,
    observe,
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
    draws = standard_normals(11, 0, N, replicate=np.arange(R))
    cov = draws.T @ draws / R
    assert np.max(np.abs(cov - np.eye(N))) < 5.0 / math.sqrt(R)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1), order=st.permutations(range(12)))
def test_replicate_streams_do_not_depend_on_order(seed, order):
    # replicate r's normals are a function of (seed, level, r) alone, so
    # drawing the replicates in any order gives the same values
    in_order = [standard_normals(seed, 0, 5, level=3, replicate=r) for r in range(12)]
    shuffled = {r: standard_normals(seed, 0, 5, level=3, replicate=r) for r in order}
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
    sample = lambda r: (np.sum(observe(np.zeros(1), np.zeros(1), eps, N, 123, replicate=r).obs0 ** 2,
                               axis=-1),)
    [(mean, se)] = monte_carlo(sample, R)
    assert abs(mean - eps * eps * N) <= 4 * se


def sq_dist_sample(truth, eps, N, seed):
    """Replicate sample: squared distance of the N noisy coefficients from
    the truth, zero-padded (unobserved modes are zero)."""
    width = max(truth.size, N)

    def sample(r):
        obs = observe(truth, np.zeros(1), eps, N, seed, replicate=r)
        d = pad(obs.obs0, width) - pad(truth, width)
        return (np.sum(d * d, axis=-1),)

    return sample


@pytest.mark.parametrize("stream, n, level, replicate, counts", [
    (0, 10**12, 0, 0, "1 streams x 1 levels x 1 replicates x 1000000000000 normals "
                      r"\(peak 4000000000000 doubles\)"),
    ((0, 1), 10**6, np.arange(7), np.arange(1 << 14), "2 streams x 7 levels x 16384 replicates "
                                                      r"x 1000000 normals \(peak 917504000000 "
                                                      r"doubles\)"),
])
def test_draw_past_the_desk_scale_budget_is_refused_before_any_word(stream, n, level, replicate,
                                                                     counts):
    # terabytes of Philox words: a missing check fails at once, and fills nothing
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=rf"^a draw of {counts} exceeds the desk-scale limit"):
            standard_normals(0, stream, n, level, replicate)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("streams, levels, replicates, n", [
    (2, 1, 1, 25000), (2, 3, 64, 600), (2, 1, 1024, 900), (1, 3, 1, 100000), (2, 7, 256, 300),
    (2, 1, 8, 125000)])
def test_a_draw_peaks_within_the_factor_it_is_charged(streams, levels, replicates, n):
    # standard_normals charges a draw at four times its Philox words
    words = streams * levels * replicates * 4 * -(-n // 4)
    args = (3, np.arange(streams), n, np.arange(levels), np.arange(replicates, dtype=np.uint64))
    tracemalloc.start()
    try:
        standard_normals(*args)
        assert tracemalloc.get_traced_memory()[1] <= 4 * 8 * words
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("R", [(1 << 16) + 1, 2**64])
def test_monte_carlo_refuses_replicates_past_the_cap_before_any_allocation(R):
    # counts a missing cap would fail on cheaply; the CLI test runs 10^8
    # under an address-space limit
    def sample(replicates):
        raise AssertionError("the sampler ran")

    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=rf"replicates must be at most 65536, .* got {R}$"):
            monte_carlo(sample, R)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    # the cap itself runs
    assert monte_carlo(lambda r: (r.astype(float),), 1 << 16)[0][0] == 32767.5


def test_monte_carlo_reduces_each_quantity_as_its_own_column():
    # each quantity is reduced as a contiguous 1-D array (pairwise summation);
    # an axis=0 reduction of the (R, 2) block rounds differently
    R = 64
    for seed in range(8):
        draw = lambda r: standard_normals(seed, 0, 2, replicate=r) * [1.0, 1e3] + [0.5, 7.0]
        sample = lambda r: draw(r).T  # one strided length-R column per quantity
        values = np.array([draw(r) for r in range(R)])
        want = [(float(np.mean(col)), float(np.std(col, ddof=1) / math.sqrt(R)))
                for col in (values[:, 0].copy(), values[:, 1].copy())]
        assert monte_carlo(sample, R) == want


def test_mise_mc_exact_estimator_is_zero():
    truth = np.array([1.0, 2.0, 3.0])
    sample = lambda r: (np.sum((truth - truth) ** 2) * np.ones(len(r)),)
    [(mean, se)] = monte_carlo(sample, 16)
    assert mean == 0.0
    assert se == 0.0


def test_mise_mc_matches_analytic_expectation():
    # estimator = truncated noisy data of u0 with c_p = p^-2, N = 8, eps = 0.05
    P, N, eps = 64, 8, 0.05
    u0 = np.arange(1, P + 1, dtype=float) ** -2.0
    [(mean, se)] = monte_carlo(sq_dist_sample(u0, eps, N, seed=2024), replicates=10_000)
    analytic = eps * eps * N + float(np.sum(u0[N:] ** 2))
    assert abs(mean - analytic) <= 4 * se


def test_mise_mc_std_err_scaling():
    u0 = np.arange(1, 17, dtype=float) ** -2.0
    sample = sq_dist_sample(u0, 0.1, 8, seed=6)
    [(_, se1)] = monte_carlo(sample, replicates=400)
    [(_, se4)] = monte_carlo(sample, replicates=1600)
    # quadrupling replicates halves the standard error (1/sqrt(R) scaling)
    assert se4 == pytest.approx(se1 / 2.0, rel=0.2)


def test_mise_mc_deterministic():
    # N = 4 observations of a two-mode truth: the padding runs the other way
    sample = sq_dist_sample(np.array([1.0, 0.3]), 0.2, 4, seed=99)
    a = monte_carlo(sample, replicates=64)
    b = monte_carlo(sample, replicates=64)
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

    # nor does a noise level whose eps^2 N is past float range
    with pytest.raises(DomainError, match="eps=1e\\+300"):
        mise_bound_check(c[:64], 0.5, 1e300, 8, eig)


def test_validation_errors():
    with pytest.raises(DomainError):
        observe(np.zeros(2), np.zeros(2), 0.0, 4, seed=1)
    with pytest.raises(DomainError):
        observe(np.zeros(2), np.zeros(2), 0.1, 0, seed=1)
    with pytest.raises(DomainError):
        monte_carlo(lambda r: (0.0,), replicates=1)


UINT64 = st.integers(min_value=0, max_value=2**64 - 1)


def numpy_box_muller(key: np.ndarray, counter: np.ndarray, n: int) -> np.ndarray:
    """n Box-Muller normals of numpy's bounded 53-bit integers from a fresh
    Philox(key=key, counter=counter), paired as ``_box_muller`` pairs."""
    k = np.random.Generator(np.random.Philox(key=key, counter=counter)).integers(
        0, 1 << 53, size=n + n % 2)
    u = (k.astype(np.float64) + 0.5) / 2.0**53
    radius, angle = np.sqrt(-2.0 * np.log(u[0::2])), 2.0 * np.pi * u[1::2]
    want = np.empty(u.size)
    want[0::2], want[1::2] = radius * np.cos(angle), radius * np.sin(angle)
    return want[:n]


def assert_halves_are_raw_words(halves, lane, key, counter, blocks):
    """The halves' words of ``lane`` are the raw words of a fresh numpy
    Philox(key=key, counter=counter): ``X[h]`` words 4b + 2h, ``Y[h]`` 4b + 2h + 1."""
    raw = np.random.Philox(key=key, counter=counter).random_raw(4 * blocks)
    for h in (0, 1):
        for half, offset in zip(halves, (2 * h, 2 * h + 1)):
            assert np.array_equal(half[(h,) + lane], raw[offset::4])


@settings(max_examples=50, deadline=None)
@given(
    seed=UINT64,
    streams=st.lists(UINT64, min_size=1, max_size=3),
    replicates=st.lists(UINT64, min_size=1, max_size=5),
    level=UINT64,
    n=st.integers(min_value=0, max_value=37),
)
@example(seed=2**64 - 1, streams=[2**64 - 1, 2**63 + 1], replicates=[2**63, 2**64 - 1, 0],
         level=2**64 - 1, n=37)
def test_philox_port_draws_what_numpy_philox_draws(seed, streams, replicates, level, n):
    # every (stream, replicate) pair of one evaluation must draw the raw words
    # of a fresh numpy Philox(key=(seed, stream), counter=(0, replicate, level, 0)),
    # and its normals must be the Box-Muller pairs of numpy's bounded integers
    # read the same way.  The oracle keys and counters are uint64 arrays: a
    # Python list sends values of 2^63 and more through float64.
    blocks = -(-n // 4)
    halves = _philox_words(seed, np.array(streams, np.uint64), np.array(replicates, np.uint64),
                           level, blocks)
    block = standard_normals(seed, streams, n, level, replicates)
    assert block.shape == (len(streams), len(replicates), n)
    for s, stream in enumerate(streams):
        for r, replicate in enumerate(replicates):
            key = np.array([seed, stream], np.uint64)
            counter = np.array([0, replicate, level, 0], np.uint64)
            assert_halves_are_raw_words(halves, (s, 0, r), key, counter, blocks)
            want = numpy_box_muller(key, counter, n)
            assert np.array_equal(block[s, r], want)
            assert np.array_equal(standard_normals(seed, stream, n, level, replicate), want)


@pytest.mark.parametrize("call, bad", [
    (lambda: monte_carlo(lambda r: (observe(np.zeros(1), np.zeros(1), 0.1, 2, -3,
                                            replicate=r).obs0[:, 0],), 8), "-3"),
    (lambda: standard_normals(-1, 0, 3), "-1"),
    (lambda: standard_normals(1, [1.7], 2), "1.7"),
    (lambda: standard_normals(1, np.array([4, -5]), 2), "-5"),
    (lambda: standard_normals(4, -1, 2), "-1"),
    (lambda: standard_normals(4, 0, 2, level=-2), "-2"),
    (lambda: standard_normals(4, 0, 2, level=0.5), "0.5"),
    (lambda: standard_normals(4, 0, 2, replicate=np.array([0, -7])), "-7"),
    (lambda: standard_normals(4, 0, 2, replicate=[2.5]), "2.5"),
], ids=["monte_carlo-negative", "standard_normals-negative", "standard_normals-float-in-list",
        "standard_normals-negative-in-array", "standard_normals-negative-stream",
        "standard_normals-negative-level", "standard_normals-float-level",
        "standard_normals-negative-replicate-in-array", "standard_normals-float-replicate"])
def test_bad_seed_is_domain_error_naming_it(call, bad):
    with pytest.raises(DomainError, match=f"non-negative integer, got {bad}"):
        call()


@pytest.mark.parametrize("call, name, bad", [
    (lambda: standard_normals(2**64 + 5, 1, 9), "seed", 2**64 + 5),
    (lambda: standard_normals(2**64, 1, 9), "seed", 2**64),
    (lambda: standard_normals(5, [0, 2**64 + 1], 9), "stream", 2**64 + 1),
    (lambda: standard_normals(5, 1, 9, level=2**65 + 3), "level", 2**65 + 3),
    (lambda: standard_normals(5, 1, 9, replicate=[3, 2**70]), "replicate", 2**70),
], ids=["seed", "seed-2^64", "stream-in-list", "level", "replicate-in-list"])
def test_values_past_64_bits_are_refused(call, name, bad):
    # each value is one Philox word: taken mod 2^64, seed 2^64 + 5 would draw seed 5's noise
    with pytest.raises(DomainError, match=re.escape(f"{name} must lie in [0, 2^64), got {bad}")):
        call()


def test_extreme_words_give_finite_normals():
    # (k + 0.5) / 2^53 rounds to 1.0 at the top 53-bit value alone: as a
    # radius word it gives radius 0, a 0.0 pair.  Value 0 gives the largest
    # radius, sqrt(-2 log 2^-54), which is finite.  Pair j is (radius, angle)
    # word (x, y)[j % 2, j // 2], and gives normals 2j and 2j + 1.
    top = (1 << 53) - 1
    pairs = np.array([(top, 0), (top, 1 << 52), (top, top), (0, 0), (0, top), (1, top - 1),
                      (top - 1, 1), (0, 1 << 52)], np.uint64) << np.uint64(11)
    x, y = pairs.reshape(4, 2, 2).transpose(2, 1, 0)
    z = _box_muller(x, y)
    assert z.shape == (16,)
    assert np.all(np.isfinite(z))
    assert np.all(z[:6] == 0.0)
    biggest = math.sqrt(-2.0 * math.log(2.0**-54))
    assert z[6] == z[8] == biggest  # angles next to 0 and at 2 pi: cos rounds to 1
    assert np.all(np.abs(z) <= biggest)
    assert 0.0 < np.hypot(z[12], z[13]) < np.hypot(z[10], z[11]) < biggest


def test_a_draw_is_a_prefix_of_any_longer_draw():
    replicates, streams = [3, 2**64 - 1], [0, 1]
    longest = standard_normals(7, streams, 38, level=1, replicate=replicates)
    for n in range(38):
        assert np.array_equal(standard_normals(7, streams, n, level=1, replicate=replicates),
                              longest[..., :n])


def test_normals_pass_ks_and_moments():
    z = standard_normals(20260809, 0, 2_000_000)
    assert stats.kstest(z, "norm").pvalue > 1e-3
    assert abs(np.mean(z)) < 5 * math.sqrt(1 / z.size)
    assert abs(np.var(z) - 1.0) < 5 * math.sqrt(2 / z.size)
    assert abs(stats.skew(z)) < 5 * math.sqrt(6 / z.size)
    assert abs(stats.kurtosis(z)) < 5 * math.sqrt(24 / z.size)
    pairs = z.reshape(-1, 2)  # the two normals of a pair are uncorrelated
    assert abs(np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1]) < 5 * math.sqrt(1 / pairs.shape[0])


@pytest.mark.parametrize("shared_noise", [False, True])
def test_observe_batch_rows_equal_single_seed_draws(shared_noise):
    replicates = np.array([0, 5, 2**64 - 1, 3, 1], np.uint64)
    u0, u1 = np.array([1.0, -0.5, 0.25]), np.array([0.2, 0.1])
    batch = observe(u0, u1, 0.05, 6, 31, shared_noise, level=2, replicate=replicates)
    assert batch.obs0.shape == batch.obs1.shape == (5, 6)
    for r, replicate in enumerate(replicates):
        one = observe(u0, u1, 0.05, 6, 31, shared_noise, level=2, replicate=replicate)
        assert np.array_equal(batch.obs0[r], one.obs0)
        assert np.array_equal(batch.obs1[r], one.obs1)


def test_monte_carlo_hands_the_sampler_the_replicate_indices():
    handed = []

    def sample(r):
        handed.append(r)
        return (np.zeros(len(r)),)

    monte_carlo(sample, 5)
    assert handed[0].dtype == np.uint64
    assert handed[0].tolist() == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("counter", ["level", "replicate"])
def test_substreams_along_a_counter_word_look_independent(counter):
    # the energy of 11 normals from each of 14 consecutive substreams is
    # chi-square with 154 degrees of freedom only if the substreams are
    # standard normal and independent of their neighbours
    k, n, count = 14, 11, 2000
    if counter == "replicate":  # replicates 14c .. 14c+13 at one level
        z = standard_normals(5, 0, n, level=1, replicate=np.arange(k * count)).reshape(count, k, n)
    else:  # replicate c at levels 0 .. 13
        z = np.stack([standard_normals(5, 0, n, level=l, replicate=np.arange(count))
                      for l in range(k)], axis=1)
    energies = np.sum(z**2, axis=(1, 2))
    assert stats.kstest(energies, stats.chi2(k * n).cdf).pvalue > 1e-3


def test_monte_carlo_needs_one_value_per_replicate():
    with pytest.raises(DomainError, match="8 values per quantity"):
        monte_carlo(lambda r: (np.zeros(len(r) - 1),), replicates=8)


@pytest.mark.parametrize("n", [0, 1, 7, 12])
def test_a_level_array_draws_each_level_as_alone(n):
    # one evaluation over levels, unsorted and up to 2^64 - 1: block (s, l)
    # has the bits of the draw of level[l] alone, which are numpy's Philox
    # words at the counter (0, replicate, level, 0) and their Box-Muller pairs
    seed, streams = 2**64 - 3, [0, 1]
    levels = np.array([3, 0, 2**64 - 1, 7], np.uint64)
    replicates = np.array([0, 5, 2**64 - 1], np.uint64)
    sweep = standard_normals(seed, streams, n, level=levels, replicate=replicates)
    assert sweep.shape == (2, 4, 3, n)
    blocks = -(-n // 4)
    halves = _philox_words(seed, np.array(streams, np.uint64), replicates, levels, blocks)
    assert halves[0].shape == halves[1].shape == (2, 2, 4, 3, blocks)
    for l, level in enumerate(levels):
        alone = standard_normals(seed, streams, n, level=level, replicate=replicates)
        assert np.array_equal(sweep[:, l], alone)
        for s, stream in enumerate(streams):
            for r, replicate in enumerate(replicates):
                key = np.array([seed, stream], np.uint64)
                counter = np.array([0, replicate, level, 0], np.uint64)
                assert_halves_are_raw_words(halves, (s, l, r), key, counter, blocks)
                assert np.array_equal(sweep[s, l, r], numpy_box_muller(key, counter, n))


@pytest.mark.parametrize("shared_noise", [False, True])
def test_observe_sweep_blocks_equal_single_level_draws(shared_noise):
    # an array of levels with one eps each: block l is the observation at
    # level[l] and eps[l] alone, and its first n columns the draw of n
    levels, eps = [0, 2, 1], [0.1, 0.01, 0.001]
    replicates = np.arange(4, dtype=np.uint64)
    u0, u1 = np.array([1.0, -0.5, 0.25]), np.array([0.2, 0.1])
    sweep = observe(u0, u1, eps, 7, 31, shared_noise, level=levels, replicate=replicates)
    assert sweep.N == 7 and sweep.obs0.shape == sweep.obs1.shape == (3, 4, 7)
    for l, (level, e) in enumerate(zip(levels, eps)):
        for n in (7, 4, 1):
            one = observe(u0, u1, e, n, 31, shared_noise, level=level, replicate=replicates)
            assert np.array_equal(sweep.obs0[l, :, :n], one.obs0)
            assert np.array_equal(sweep.obs1[l, :, :n], one.obs1)


@pytest.mark.parametrize("eps, level, match", [
    ([0.1, 0.2], [0, 1, 2], "one eps per noise level"),
    (0.1, [0, 1], "one eps per noise level"),
    ([0.1, 0.2], 0, "one eps per noise level"),
    ([0.1, 0.0], [0, 1], "eps must be positive"),
    ([0.1, math.nan], [0, 1], "eps must be positive"),
], ids=["short", "scalar-eps", "scalar-level", "zero", "nan"])
def test_observe_needs_one_positive_eps_per_level(eps, level, match):
    with pytest.raises(DomainError, match=match):
        observe(np.zeros(2), np.zeros(2), eps, 4, seed=1, level=level)
