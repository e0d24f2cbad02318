"""The Cephes ports in fracreg._special against the installed scipy.special.

scipy is an oracle here only; the package itself does not import it.
``ndtri`` and ``gammaln`` must return scipy's bits, since they feed every
report.
"""

import math

import numpy as np
import pytest
import scipy.special as sc
from hypothesis import given, settings
from hypothesis import strategies as st

from fracreg._special import gammaln, ndtri
from fracreg.noise_model import _BELOW_ONE, _normals_from_words

TWO53 = 1 << 53
EXP_M2 = math.exp(-2.0)


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=TWO53 - 2), min_size=1, max_size=200))
def test_ndtri_matches_scipy_on_word_uniforms(words):
    u = (np.array(words, dtype=np.uint64).astype(np.float64) + 0.5) / float(TWO53)
    assert_same_bits(ndtri(u), sc.ndtri(u))


def test_ndtri_matches_scipy_on_edge_words():
    # 2^53 - 1 alone rounds to 1.0; _normals_from_words clamps it to _BELOW_ONE
    words = np.array([0, 1, TWO53 - 2], dtype=np.uint64)
    u = (words.astype(np.float64) + 0.5) / float(TWO53)
    assert_same_bits(ndtri(u), sc.ndtri(u))
    assert (float(TWO53 - 1) + 0.5) / float(TWO53) == 1.0
    assert_same_bits(ndtri(_BELOW_ONE), sc.ndtri(_BELOW_ONE))
    top = _normals_from_words(np.array([TWO53 - 1], dtype=np.uint64))
    assert_same_bits(top, sc.ndtri([_BELOW_ONE]))


def test_ndtri_matches_scipy_next_to_branch_switches():
    y = []
    for edge in (EXP_M2, 1.0 - EXP_M2):
        below, above = edge, edge
        for _ in range(4):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, 1.0)
            y += [below, above]
        y.append(edge)
    # z = sqrt(-2 log y) crosses 8 near y = exp(-32)
    y += [math.exp(-32.0), np.nextafter(math.exp(-32.0), 0.0), np.nextafter(math.exp(-32.0), 1.0)]
    assert_same_bits(ndtri(y), sc.ndtri(y))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=1e-300, max_value=EXP_M2), min_size=1, max_size=100))
def test_ndtri_matches_scipy_in_the_tails(y):
    y = np.array(y)
    assert_same_bits(ndtri(y), sc.ndtri(y))
    upper = 1.0 - y[y > 1e-16]
    assert_same_bits(ndtri(upper), sc.ndtri(upper))


def test_ndtri_keeps_block_shape():
    rng = np.random.default_rng(7)
    u = np.concatenate([rng.random(40 * 13), np.logspace(-300, -1, 40 * 3)]).reshape(40, 16)
    got = ndtri(u)
    assert got.shape == (40, 16)
    assert_same_bits(got, sc.ndtri(u))


@settings(max_examples=60, deadline=None)
@given(
    beta=st.one_of(st.sampled_from([2.0, 1.0, 0.5]), st.floats(min_value=1e-3, max_value=2.0)),
    offset=st.sampled_from(["1", "2", "beta", "beta+1", "beta+2"]),
)
def test_gammaln_matches_scipy_on_series_tables(beta, offset):
    gamma = {"1": 1.0, "2": 2.0, "beta": beta, "beta+1": beta + 1.0, "beta+2": beta + 2.0}[offset]
    x = beta * np.arange(10_002) + gamma
    assert_same_bits(gammaln(x), sc.gammaln(x))


def test_gammaln_matches_scipy_on_every_branch():
    rng = np.random.default_rng(3)
    x = np.concatenate([
        rng.uniform(1e-6, 2.0, 2000),
        [2.0, 3.0, 13.0, np.nextafter(13.0, 0.0), 1000.0, np.nextafter(1000.0, 0.0), 1e8,
         np.nextafter(1e8, 2e8), 5e-324, 1e-300],
        rng.uniform(2.0, 13.0, 2000),
        rng.uniform(13.0, 1000.0, 2000),
        10.0 ** rng.uniform(3.0, 8.0, 2000),
        10.0 ** rng.uniform(8.0, 300.0, 2000),
    ])
    got = gammaln(x.reshape(-1, 2))
    assert got.shape == (x.size // 2, 2)
    assert_same_bits(got.ravel(), sc.gammaln(x))

