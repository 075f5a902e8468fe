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


# --- the certified Krylov path of energy_profile ---------------------------


def laplace_matrix(m, n, seed, column_decay=0.9):
    """A laplace(1) matrix with column j scaled by max(decay^j, 0.1), as in
    the matrix-io benchmark; decay 1 gives equal column scales."""
    x = generate(SyntheticSpec("laplace", m * n, seed, (1.0,))).reshape(m, n)
    return x * np.maximum(column_decay ** np.arange(n), 0.1)


def dense_profile(x, top_r, monkeypatch):
    """energy_profile with the Krylov path switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(rank1, "_KRYLOV_FLOOR", 10**9)
        profile = energy_profile(x, top_r)
    assert profile.diagnostics == rank1.EnergySolve("dense", "floor")
    return profile


def assert_bitwise_equal(got, expected):
    for name in ("singular_energies", "total", "ratio_1", "remainder"):
        assert getattr(got, name) == getattr(expected, name), name


def test_diagnostics_take_no_part_in_equality_or_repr():
    fields = dict(singular_energies=(2.0, 1.0), total=4.0, ratio_1=0.5, remainder=1.0)
    plain = EnergyProfile(**fields)
    solved = EnergyProfile(**fields, diagnostics=rank1.EnergySolve("krylov", None, 80, 1e-15))
    assert plain == solved and repr(plain) == repr(solved)
    assert "diagnostics" not in repr(solved)


def test_small_gram_takes_the_dense_path():
    profile = energy_profile(random_matrix(40, 24, 3), 4)
    assert profile.diagnostics == rank1.EnergySolve("dense", "floor")
    assert energy_profile(np.zeros((3, 3)), 2).diagnostics is None


def test_certificate_refuses_an_eigenvalue_the_krylov_space_misses(monkeypatch):
    # |X| = diag(A, B): A's scaled columns hold the 16 largest diagonal
    # entries of G, so the start block and every Krylov block lie in A's
    # coordinates, while B, small per entry but large in extent, holds G's
    # second eigenvalue.  The Ritz values converge to A's spectrum; only the
    # Cholesky certificate can see that they are not G's top eight.
    x = np.zeros((1000, 1000))
    x[:200, :200] = laplace_matrix(200, 200, 1)
    x[200:, 200:] = 0.03 * laplace_matrix(800, 800, 2, column_decay=1.0)
    mags = np.abs(x)
    diagonal = np.sum(mags * mags, axis=0)
    assert np.sort(diagonal[:200])[-16] > diagonal[200:].max()
    profile = energy_profile(x, 8)
    assert profile.diagnostics.path == "dense"
    assert profile.diagnostics.reason == "refused"
    assert_bitwise_equal(profile, dense_profile(x, 8, monkeypatch))
    lead_b = np.linalg.svd(mags[200:, 200:], compute_uv=False)[0] ** 2
    assert profile.singular_energies[1] == pytest.approx(lead_b, rel=1e-12)


def test_a_repeated_eigenvalue_at_the_cut_falls_back(monkeypatch):
    # |X| = diag(A, A) doubles every eigenvalue of A's Gram matrix, so
    # lambda_7 = lambda_8: no gap separates the top seven from the rest.
    a = laplace_matrix(500, 500, 3)
    x = np.zeros((1000, 1000))
    x[:500, :500] = x[500:, 500:] = a
    profile = energy_profile(x, 7)
    assert profile.diagnostics.path == "dense"
    assert_bitwise_equal(profile, dense_profile(x, 7, monkeypatch))
    seventh, eighth = dense_profile(x, 8, monkeypatch).singular_energies[6:]
    assert seventh == pytest.approx(eighth, rel=1e-12)


def test_krylov_path_handles_energies_below_the_normal_range(monkeypatch):
    # Energies 1, 1e-320, 8.1e-321 and 6.4e-321: the second and third are
    # subnormal, and their gap times the stop tolerance is 0.
    x = np.zeros((500, 500))
    x[:4, :4] = np.diag([1.0, 1e-160, 0.9e-160, 0.8e-160])
    lead = energy_profile(x, 1)
    assert lead.diagnostics.path == "krylov" and lead.singular_energies == (1.0,)
    profile = energy_profile(x, 2)
    assert profile.diagnostics.path == "dense"
    assert_bitwise_equal(profile, dense_profile(x, 2, monkeypatch))


@pytest.mark.parametrize("power", [600, -600, 37])
def test_krylov_path_is_equivariant_under_powers_of_two(power):
    x = laplace_matrix(800, 800, 5)
    base, got = energy_profile(x, 8), energy_profile(np.ldexp(x, power), 8)
    assert base.diagnostics.path == got.diagnostics.path == "krylov"
    assert got.ratio_1 == base.ratio_1
    with np.errstate(over="ignore"):
        # 2^1200 overflows to inf and 2^-1200 underflows to 0, as the true
        # energies do.
        assert got.singular_energies == tuple(np.ldexp(base.singular_energies, 2 * power))
        assert got.total == np.ldexp(base.total, 2 * power)
        assert got.remainder == np.ldexp(base.remainder, 2 * power)
        assert got.diagnostics.bound == np.ldexp(base.diagnostics.bound, 2 * power)


@pytest.mark.parametrize("decay,path", [(0.9, "krylov"), (1.0, "dense")])
def test_energy_profile_matches_svd_above_the_size_floor(decay, path):
    # Column scales 0.9^j set the leading squared singular values about
    # 10 % apart and the Krylov certificate holds; equal scales put values
    # 2 to 9 in a clustered bulk, where the Krylov solve stalls.
    x = laplace_matrix(1000, 1000, 30, column_decay=decay)
    profile = energy_profile(x, 8)
    assert profile.diagnostics.path == path
    expected = np.linalg.svd(np.abs(x), compute_uv=False)[:8] ** 2
    assert_close(profile.singular_energies, expected, rel=1e-12)
    if path == "krylov":
        assert 0.0 < profile.diagnostics.bound <= 1e-12 * profile.singular_energies[0]


@st.composite
def block_matrices(draw):
    """600x600 block-diagonal matrices: up to three laplace blocks of drawn
    sizes, column decays and scales, and a top_r the Krylov path accepts."""
    cuts = sorted(draw(st.lists(st.integers(50, 550), max_size=2, unique=True)))
    x = np.zeros((600, 600))
    for lo, hi in zip([0, *cuts], [*cuts, 600]):
        decay = draw(st.sampled_from([0.8, 0.9, 0.97, 1.0]))
        scale = draw(st.sampled_from([1.0, 0.3, 0.05]))
        x[lo:hi, lo:hi] = scale * laplace_matrix(hi - lo, hi - lo, draw(st.integers(0, 99)), decay)
    return x, draw(st.integers(1, 4))


@settings(max_examples=25, deadline=None)
@given(block_matrices())
def test_krylov_energies_lie_within_their_certified_bound(case):
    # A certified energy is a lower bound within `bound` of G's eigenvalue,
    # up to rounding of order N eps lambda_1; a fallback is the dense path.
    x, top_r = case
    profile = energy_profile(x, top_r)
    mags = np.abs(x)
    exact = np.linalg.eigvalsh(mags.T @ mags)[::-1][:top_r]
    if profile.diagnostics.path == "dense":
        assert profile.singular_energies == tuple(np.maximum(exact, 0.0))
        return
    slack = 600 * np.finfo(np.float64).eps * exact[0]
    got = np.array(profile.singular_energies)
    assert np.all(got <= exact + slack)
    assert np.all(exact - got <= profile.diagnostics.bound + slack)
