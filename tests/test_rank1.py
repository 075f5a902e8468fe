import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitquant import (
    ConvergenceError,
    EnergyProfile,
    Rank1Factorization,
    SplitMix64,
    SyntheticSpec,
    channel_mean_rank1,
    energy_profile,
    generate,
    rank1,
    rank1_binary,
    reconstruct_rank1,
    residual_fro2,
)

from conftest import assert_close
from oracles import jacobi_eigh


def random_matrix(m, n, seed, zero_fraction=0.0):
    rng = SplitMix64(seed)
    x = rng.normal(m * n).reshape(m, n)
    if zero_fraction:
        mask = rng.uniform_open01(m * n).reshape(m, n) < zero_fraction
        x = np.where(mask, 0.0, x)
    return x


# --- the Jacobi oracle itself ---------------------------------------------


def test_jacobi_oracle_self_check():
    rng = SplitMix64(123)
    a = rng.normal(36).reshape(6, 6)
    a = a + a.T
    eigenvalues, vectors = jacobi_eigh(a)
    assert np.all(np.diff(eigenvalues) <= 1e-12)
    for i in range(6):
        residual = a @ vectors[:, i] - eigenvalues[i] * vectors[:, i]
        assert float(np.linalg.norm(residual)) < 1e-10
    assert np.allclose(vectors.T @ vectors, np.eye(6), atol=1e-12)
    assert float(np.sum(eigenvalues)) == pytest.approx(float(np.trace(a)), rel=1e-12)


# --- container validation -------------------------------------------------


def test_factorization_validation():
    ones = np.ones((2, 2), dtype=np.int8)
    e1 = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        Rank1Factorization(sigma=-1.0, u=e1, v=e1, signs=ones)
    with pytest.raises(ValueError):
        Rank1Factorization(sigma=1.0, u=np.array([0.5, 0.5]), v=e1, signs=ones)
    with pytest.raises(ValueError):
        Rank1Factorization(sigma=1.0, u=np.array([-1.0, 0.0]), v=e1, signs=ones)
    with pytest.raises(ValueError):
        Rank1Factorization(sigma=1.0, u=e1, v=e1, signs=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Rank1Factorization(sigma=1.0, u=e1, v=e1, signs=np.ones((3, 2), dtype=np.int8))
    with pytest.raises(ValueError, match="u and v must be vectors"):
        Rank1Factorization(sigma=1.0, u=np.array([[1.0, 0.0]]), v=e1, signs=ones)


def test_energy_profile_validation():
    with pytest.raises(ValueError):
        EnergyProfile(singular_energies=(), total=1.0, ratio_1=0.5, remainder=0.5)
    with pytest.raises(ValueError):
        EnergyProfile(singular_energies=(1.0, 2.0), total=3.0, ratio_1=0.3, remainder=0.0)
    with pytest.raises(ValueError):
        EnergyProfile(singular_energies=(1.0,), total=1.0, ratio_1=1.5, remainder=0.0)
    with pytest.raises(ValueError, match="singular energies must be nonnegative"):
        EnergyProfile(singular_energies=(1.0, -0.5), total=1.0, ratio_1=1.0, remainder=0.0)


# --- rank1_binary against the eigensolver oracle --------------------------


@pytest.mark.parametrize(
    "m,n,seed,zero_fraction",
    [(20, 15, 1, 0.0), (7, 30, 2, 0.0), (12, 12, 3, 0.3), (5, 4, 4, 0.5)],
)
def test_sigma_matches_dominant_eigenvalue(m, n, seed, zero_fraction):
    x = random_matrix(m, n, seed, zero_fraction)
    f = rank1_binary(x)
    mags = np.abs(x)
    eigenvalues, _ = jacobi_eigh(mags.T @ mags)
    assert f.sigma**2 == pytest.approx(eigenvalues[0], rel=1e-9)
    assert np.all(f.u >= 0) and np.all(f.v >= 0)
    assert float(np.linalg.norm(f.u)) == pytest.approx(1.0, abs=1e-12)
    assert float(np.linalg.norm(f.v)) == pytest.approx(1.0, abs=1e-12)


def test_signs_follow_data_with_zero_up():
    x = np.array([[1.5, -2.0], [0.0, 3.0]])
    f = rank1_binary(x)
    assert f.signs.tolist() == [[1, -1], [1, 1]]
    assert f.shape == (2, 2)


def test_residual_energy_identity():
    x = random_matrix(14, 9, 5)
    f = rank1_binary(x)
    direct = residual_fro2(x, f)
    via_identity = float(np.sum(x * x)) - f.sigma**2
    assert direct == pytest.approx(via_identity, rel=1e-6)


@pytest.mark.parametrize("shape", [(1, 1), (14, 9), (3, 200), (257, 31)])
def test_residual_is_bitwise_the_dense_difference(shape):
    x = random_matrix(*shape, seed=sum(shape))
    for f in (rank1_binary(x), channel_mean_rank1(x)):
        d = x - reconstruct_rank1(f)
        assert residual_fro2(x, f) == float(np.sum(d * d))


def test_residual_refuses_a_matrix_of_another_shape():
    f = rank1_binary(random_matrix(2, 4, 1))
    for shape in [(3, 4), (1, 4), (2, 1)]:
        message = f"x has shape {shape}, the factorization (2, 4)"
        with pytest.raises(ValueError, match=re.escape(message)):
            residual_fro2(np.ones(shape), f)


def test_exact_rank1_magnitudes_are_recovered():
    rng = SplitMix64(6)
    a = np.abs(rng.normal(10)) + 0.1
    b = np.abs(rng.normal(7)) + 0.1
    signs = rng.signs(70).reshape(10, 7).astype(np.float64)
    x = np.outer(a, b) * signs
    f = rank1_binary(x)
    assert f.sigma == pytest.approx(float(np.linalg.norm(a) * np.linalg.norm(b)), rel=1e-12)
    assert residual_fro2(x, f) <= 1e-18 * float(np.sum(x * x)) + 1e-24
    assert np.allclose(reconstruct_rank1(f), x, atol=1e-10)


def test_zero_matrix_degenerates_cleanly():
    x = np.zeros((3, 4))
    f = rank1_binary(x)
    assert f.sigma == 0.0
    assert np.all(f.signs == 1)
    assert residual_fro2(x, f) == 0.0


def test_beats_random_nonnegative_scale_fields():
    x = random_matrix(9, 6, 7)
    f = rank1_binary(x)
    base = residual_fro2(x, f)
    rng = SplitMix64(8)
    for _ in range(100):
        u = np.abs(rng.normal(9))
        v = np.abs(rng.normal(6))
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        trial = Rank1Factorization(
            sigma=float(np.sum(np.abs(x) * np.outer(u, v))), u=u, v=v, signs=f.signs
        )
        assert residual_fro2(x, trial) >= base - 1e-9


def test_convergence_error_carries_partial_result(monkeypatch):
    monkeypatch.setattr(rank1, "_POWER_MAX_ITERS", 1)
    x = random_matrix(8, 8, 9)
    with pytest.raises(ConvergenceError) as info:
        rank1_binary(x)
    partial = info.value.partial
    assert isinstance(partial, Rank1Factorization)
    assert partial.sigma > 0


@pytest.mark.parametrize("power", [600, -600])
def test_power_of_two_scaling_is_exact(power, monkeypatch):
    x = random_matrix(5, 6, 40)
    scaled = np.ldexp(x, power)
    for fit in (rank1_binary, channel_mean_rank1):
        base, got = fit(x), fit(scaled)
        assert got.sigma == np.ldexp(base.sigma, power)
        assert np.array_equal(got.u, base.u) and np.array_equal(got.v, base.v)
        assert np.array_equal(got.signs, base.signs)
        # 2^1200 overflows to inf and 2^-1200 underflows to 0, as the true
        # residual does; neither warns.
        with np.errstate(over="ignore"):
            expected = np.ldexp(residual_fro2(x, base), 2 * power)
        assert residual_fro2(scaled, got) == expected
    monkeypatch.setattr(rank1, "_POWER_MAX_ITERS", 1)
    with pytest.raises(ConvergenceError) as info:
        rank1_binary(scaled)
    with pytest.raises(ConvergenceError) as base_info:
        rank1_binary(x)
    assert info.value.partial.sigma == np.ldexp(base_info.value.partial.sigma, power)
    base, got = energy_profile(x, 4), energy_profile(scaled, 4)
    assert got.ratio_1 == base.ratio_1
    with np.errstate(over="ignore"):
        # 2^1200 overflows to inf and 2^-1200 underflows to 0, as the true
        # energies do.
        assert got.singular_energies == tuple(np.ldexp(base.singular_energies, 2 * power))
        assert got.total == np.ldexp(base.total, 2 * power)
        assert got.remainder == np.ldexp(base.remainder, 2 * power)


@pytest.mark.parametrize("fit", [rank1_binary, channel_mean_rank1])
def test_sigma_past_the_float64_maximum_names_its_cause(fit):
    # Every entry is finite, but sigma = 3 * 1.7e308 is not.
    with pytest.raises(ValueError, match="lies beyond the float64 range"):
        fit(np.full((3, 3), 1.7e308))


@st.composite
def magnitude_edge_matrices(draw):
    """Small matrices with exact and negative zeros, zero rows and columns,
    and entries scaled by 2^-1074 up to 2^1000."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entries = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-4.0, 4.0))
    x = np.array(draw(st.lists(entries, min_size=m * n, max_size=m * n))).reshape(m, n)
    x[draw(st.lists(st.integers(0, m - 1), max_size=m)), :] = 0.0
    x[:, draw(st.lists(st.integers(0, n - 1), max_size=n))] = -0.0
    return np.ldexp(x, draw(st.sampled_from([-1074, -1000, 0, 1000])))


@settings(max_examples=200, deadline=None)
@given(magnitude_edge_matrices())
def test_scale_vectors_have_no_negative_or_negative_zero_entry(x):
    # _triple builds u and v from |X|, its column sums and products of the
    # two, so they need no clamp at 0: no entry carries a sign bit.
    try:
        best = rank1_binary(x)
    except ConvergenceError as exc:
        best = exc.partial
    for f in (best, channel_mean_rank1(x)):
        assert not np.signbit(f.u).any() and not np.signbit(f.v).any()


@pytest.mark.parametrize("factor", [1e160, 1e-160])
def test_extreme_scales_are_equivariant(factor):
    x = random_matrix(5, 6, 40)
    for fit in (rank1_binary, channel_mean_rank1):
        base, got = fit(x), fit(x * factor)
        assert got.sigma == pytest.approx(base.sigma * factor, rel=1e-12)
        assert_close(got.u, base.u, abs_tol=1e-12)
        assert_close(got.v, base.v, abs_tol=1e-12)
    assert energy_profile(x * factor, 4).ratio_1 == pytest.approx(
        energy_profile(x, 4).ratio_1, rel=1e-12
    )


# --- channel-mean baseline ------------------------------------------------


def test_channel_mean_reconstruction():
    x = np.array([[1.0, -3.0], [0.5, 0.5]])
    f = channel_mean_rank1(x)
    recon = reconstruct_rank1(f)
    expected = np.array([[2.0, -2.0], [0.5, 0.5]])
    assert np.allclose(recon, expected, atol=1e-12)


def test_channel_mean_never_beats_rank1(normal_matrix):
    for x in (normal_matrix, random_matrix(10, 25, 11)):
        assert residual_fro2(x, rank1_binary(x)) <= residual_fro2(
            x, channel_mean_rank1(x)
        ) + 1e-9


# --- energy profile -------------------------------------------------------


def test_energy_profile_matches_jacobi_spectrum():
    x = random_matrix(12, 9, 12)
    profile = energy_profile(x, 5)
    mags = np.abs(x)
    eigenvalues, _ = jacobi_eigh(mags.T @ mags)
    for got, expected in zip(profile.singular_energies, eigenvalues[:5]):
        assert got == pytest.approx(expected, rel=1e-8, abs=1e-10)
    assert profile.total == pytest.approx(float(np.sum(mags * mags)), rel=1e-12)
    assert profile.remainder == pytest.approx(
        profile.total - float(np.sum(profile.singular_energies)), abs=1e-9
    )
    assert 0.0 <= profile.ratio_1 <= 1.0


def test_energy_profile_leading_energy_is_sigma_squared():
    x = random_matrix(10, 10, 13)
    assert energy_profile(x, 1).singular_energies[0] == pytest.approx(
        rank1_binary(x).sigma ** 2, rel=1e-10
    )


def test_energy_profile_full_depth_accounts_for_everything():
    x = random_matrix(6, 6, 14)
    profile = energy_profile(x, 6)
    assert profile.remainder == pytest.approx(0.0, abs=1e-9 * profile.total)


def test_energy_profile_low_rank_data():
    a = np.array([1.0, 2.0, 3.0])
    x = np.outer(a, a)
    profile = energy_profile(x, 3)
    assert profile.ratio_1 == pytest.approx(1.0, abs=1e-12)
    assert profile.singular_energies[1] == pytest.approx(0.0, abs=1e-9 * profile.total)


def test_energy_profile_matches_svd_on_clustered_spectrum():
    # Equal column scales leave squared singular values 2 to 8 of this
    # matrix within 10 % of each other and the 7th and 8th within 6e-4,
    # where an iterative solver separates directions slowly.
    x = generate(SyntheticSpec("laplace", 1000 * 250, 30, (1.0,))).reshape(1000, 250)
    profile = energy_profile(x, 8)
    expected = np.linalg.svd(np.abs(x), compute_uv=False)[:8] ** 2
    assert_close(profile.singular_energies, expected, rel=1e-12)


def test_energy_profile_validation_and_zero_matrix():
    x = np.zeros((3, 3))
    profile = energy_profile(x, 2)
    assert profile.total == 0.0 and profile.ratio_1 == 0.0
    with pytest.raises(ValueError):
        energy_profile(np.ones((3, 3)), 0)
    with pytest.raises(ValueError):
        energy_profile(np.ones((3, 3)), 4)
    with pytest.raises(ValueError):
        energy_profile(np.ones(3), 1)
