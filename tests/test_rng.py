import numpy as np
import pytest

from bitquant import SplitMix64, SyntheticSpec, generate
from bitquant.rng import _BLOCK

from oracles import (
    normal_reference,
    splitmix64_reference,
    splitmix64_words,
    synthesis_reference,
    uniform_reference,
)


@pytest.mark.parametrize("seed", [0, 1, 42, 0xDEADBEEF, (1 << 64) - 1])
def test_words_match_sequential_reference(seed):
    rng = SplitMix64(seed)
    got = rng.words(200)
    expected = splitmix64_reference(seed, 200)
    assert got.dtype == np.uint64
    assert [int(w) for w in got] == expected


def test_stream_is_positional_not_stateful_per_call():
    a = SplitMix64(9)
    first = a.words(3)
    second = a.words(4)
    fresh = SplitMix64(9).words(7)
    assert np.array_equal(np.concatenate([first, second]), fresh)


def test_seed_wraps_to_64_bits():
    wide = SplitMix64((1 << 64) + 5)
    narrow = SplitMix64(5)
    assert np.array_equal(wide.words(16), narrow.words(16))


def test_uniform_open_interval():
    u = SplitMix64(3).uniform_open01(100_000)
    assert u.dtype == np.float64
    assert np.all(u > 0.0)
    assert np.all(u < 1.0)
    assert abs(float(np.mean(u)) - 0.5) < 0.01


def test_uniform_matches_word_transform():
    rng = SplitMix64(77)
    w = rng.words(64)
    u = SplitMix64(77).uniform_open01(64)
    expected = ((w >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    assert np.array_equal(u, expected)


def test_normal_moments():
    z = SplitMix64(11).normal(200_000)
    assert abs(float(np.mean(z))) < 0.01
    assert abs(float(np.var(z)) - 1.0) < 0.02


def test_normal_odd_count_is_prefix_of_even():
    odd = SplitMix64(5).normal(5)
    even = SplitMix64(5).normal(6)
    assert np.array_equal(odd, even[:5])


def test_signs_are_plus_minus_one_and_balanced():
    s = SplitMix64(21).signs(100_000)
    assert s.dtype == np.int8
    assert set(np.unique(s)) == {-1, 1}
    assert abs(float(np.mean(s))) < 0.02


def test_zero_count_requests():
    rng = SplitMix64(0)
    assert rng.words(0).size == 0
    assert rng.uniform_open01(0).size == 0
    assert rng.normal(0).size == 0


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        SplitMix64(0).words(-1)


@pytest.mark.parametrize("draw", ["words", "uniform_open01", "normal", "signs"])
@pytest.mark.parametrize("count", [-1, -2])
def test_every_draw_refuses_a_negative_count(draw, count):
    # normal checks the count before it rounds it up to pairs, where -1
    # would become 0 pairs and an empty draw.
    rng = SplitMix64(0)
    with pytest.raises(ValueError, match="count must be nonnegative"):
        getattr(rng, draw)(count)
    assert np.array_equal(rng.words(3), SplitMix64(0).words(3))


def test_a_refused_count_leaves_the_stream_in_place():
    rng = SplitMix64(0)
    with pytest.raises(TypeError):
        rng.words(2.5)
    assert np.array_equal(rng.words(3), SplitMix64(0).words(3))


# Sizes on both sides of the block edges; all but B are odd, so normal and
# lognormal also draw an unused last Box-Muller value.
BLOCK_SIZES = [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7]
DISTRIBUTIONS = [
    ("normal", ()),
    ("uniform", (-2.0, 3.0)),
    ("laplace", (0.7,)),
    ("lognormal", (0.5, 1.3)),
]


def same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("n", BLOCK_SIZES)
@pytest.mark.parametrize("distribution, params", DISTRIBUTIONS, ids=lambda p: str(p))
def test_blocked_generate_matches_whole_array_formulas(distribution, params, n):
    for seed in (0, 104729):
        got = generate(SyntheticSpec(distribution, n, seed, params))
        assert got.shape == (n,)
        assert same_bits(got, synthesis_reference(distribution, n, seed, params))


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_blocked_draws_match_whole_array_words_and_keep_the_stream_position(n):
    seed = 0xDEADBEEF
    rng = SplitMix64(seed)
    assert np.array_equal(rng.words(n), splitmix64_words(seed, 0, n))
    assert np.array_equal(rng.uniform_open01(n), uniform_reference(seed, n, n))
    assert same_bits(rng.normal(n), normal_reference(seed, 2 * n, n))
    # normal(n) took 2 * ceil(n / 2) words, one more than n when n is odd.
    at = 2 * n + 2 * ((n + 1) // 2)
    top = splitmix64_words(seed, at, n) >> np.uint64(63)
    assert np.array_equal(rng.signs(n), np.where(top == 0, 1, -1).astype(np.int8))
    assert np.array_equal(rng.words(3), splitmix64_words(seed, at + n, 3))
