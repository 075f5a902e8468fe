import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitquant import (
    LloydQuantizer,
    ScaledBinaryQuantization,
    SyntheticSpec,
    foldable_planes,
    generate,
    is_foldable,
    lloyd_to_scaled_binary,
    objective,
    quantize_greedy,
    quantize_lloyd,
    quantize_ls1,
    quantize_ls2,
    quantize_ternary,
    reconstruct,
    sign,
)

from oracles import exhaustive_two_bit_mse, optimal_k_level_mse, ternary_best_on_grid


def mse(x, q) -> float:
    return objective(x, q).mse


# --- sign and containers --------------------------------------------------


def test_sign_of_zero_is_plus_one():
    assert sign(0.0) == 1
    assert sign(-0.0) == 1
    out = sign(np.array([-2.0, 0.0, 3.0]))
    assert out.dtype == np.int8
    assert out.tolist() == [-1, 1, 1]


def test_quantization_container_validation():
    good_planes = np.ones((1, 3), dtype=np.int8)
    with pytest.raises(ValueError):
        ScaledBinaryQuantization(np.array([-0.5]), good_planes, "ls1")
    with pytest.raises(ValueError):
        ScaledBinaryQuantization(np.array([1.0]), np.zeros((1, 3)), "ls1")
    with pytest.raises(ValueError):
        ScaledBinaryQuantization(np.array([1.0]), good_planes, "banana")
    with pytest.raises(ValueError):
        ScaledBinaryQuantization(np.array([1.0, 2.0]), np.ones((2, 3)), "ls2")
    with pytest.raises(ValueError):
        ScaledBinaryQuantization(np.array([2.0, 1.0]), np.ones((2, 3)), "ternary")
    # Greedy levels are reported in generation order and may increase.
    q = ScaledBinaryQuantization(np.array([1.0, 2.0]), np.ones((2, 3)), "greedy")
    assert q.k == 2 and q.n == 3


def test_quantization_is_read_only():
    q = quantize_ls1([1.0, -2.0])
    with pytest.raises(ValueError):
        q.levels[0] = 5.0
    with pytest.raises(ValueError):
        q.planes[0, 0] = -1


def test_objective_length_mismatch():
    q = quantize_ls1([1.0, -2.0])
    with pytest.raises(ValueError):
        objective([1.0, 2.0, 3.0], q)


def test_objective_is_finite_where_the_true_mse_is():
    # The squared difference 1e310 overflows, the mean 9.999e305 does not.
    x = np.array([1e155] + [0.0] * 9999)
    q = quantize_ls1(x)
    v = Fraction(float(q.levels[0]))
    exact = ((Fraction(1e155) - v) ** 2 + 9999 * v * v) / 10000
    with np.errstate(all="raise"):
        got = mse(x, q)
    assert got == pytest.approx(float(exact), rel=1e-15)


# --- one bit --------------------------------------------------------------


def test_ls1_level_is_mean_magnitude_exactly(vector_battery):
    for x in vector_battery:
        q = quantize_ls1(x)
        assert q.levels[0] == float(np.mean(np.abs(x)))
        assert np.array_equal(q.planes[0], sign(x))
        assert q.method == "ls1"


def test_ls1_beats_nearby_levels():
    x = generate(SyntheticSpec("normal", 500, 17))
    q = quantize_ls1(x)
    base = mse(x, q)
    for delta in (-1e-3, 1e-3):
        shifted = ScaledBinaryQuantization(q.levels + delta, q.planes, "ls1")
        assert mse(x, shifted) > base


def test_ls1_all_zero_vector():
    q = quantize_ls1([0.0, 0.0, 0.0])
    assert q.levels[0] == 0.0
    assert q.planes.tolist() == [[1, 1, 1]]
    assert mse([0.0, 0.0, 0.0], q) == 0.0


# --- greedy ---------------------------------------------------------------


def test_greedy_one_bit_matches_ls1_bitwise(vector_battery):
    for x in vector_battery:
        a = quantize_greedy(x, 1)
        b = quantize_ls1(x)
        assert np.array_equal(a.levels, b.levels)
        assert np.array_equal(a.planes, b.planes)


def test_greedy_planes_are_their_own_folding(vector_battery):
    for x in vector_battery[:8]:
        q = quantize_greedy(x, 4)
        assert np.array_equal(q.planes, foldable_planes(x, q.levels))


def test_greedy_error_strictly_decreases():
    x = generate(SyntheticSpec("laplace", 400, 23, (1.0,)))
    errors = [mse(x, quantize_greedy(x, k)) for k in range(1, 7)]
    for worse, better in zip(errors, errors[1:]):
        assert better < worse


def test_greedy_rejects_bad_k():
    with pytest.raises(ValueError):
        quantize_greedy([1.0], 0)


# --- ternary --------------------------------------------------------------


def ternary_fixed_point_holds(x) -> bool:
    q = quantize_ternary(x)
    v = float(q.levels[0])
    if v == 0.0:
        return bool(np.all(np.asarray(x, dtype=np.float64) == 0.0))
    mags = np.sort(np.abs(np.asarray(x, dtype=np.float64)))
    upper = mags[np.searchsorted(mags, v, side="right"):]
    return v == 0.5 * float(np.mean(upper))


def test_ternary_fixed_point_is_exact(vector_battery):
    for x in vector_battery:
        assert ternary_fixed_point_holds(x)


@pytest.mark.parametrize(
    "x",
    [
        [0.0, 0.0, 3.0],
        [1.0, 1.0],
        [1.0, 3.0],
        [2.0, 2.5],
        [5.0],
        [0.1, 0.1, 0.1],
        [1.0, 1.9],
        [-4.0, 0.0, 0.0, 4.0, 4.0],
        [1e-12, 1.0, 1e12],
    ],
)
def test_ternary_fixed_point_edge_cases(x):
    assert ternary_fixed_point_holds(x)
    q = quantize_ternary(x)
    assert q.levels[0] == q.levels[1]
    assert is_foldable(x, q)


def test_ternary_smallest_subnormal_keeps_level_zero():
    # The exact optimum v = 2**-1075 is not a float64.  Its neighbours 0 and
    # 5e-324 reconstruct x with the same exact error, so level 0 is optimal.
    x = [5e-324]
    q = quantize_ternary(x)
    assert q.levels.tolist() == [0.0, 0.0]
    up = np.array([5e-324, 5e-324])
    neighbour = ScaledBinaryQuantization(up, foldable_planes(x, up), "ternary")
    assert reconstruct(neighbour).tolist() == [1e-323]

    def exact_error(q):
        return sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(x, reconstruct(q)))

    assert exact_error(q) == exact_error(neighbour) == Fraction(5e-324) ** 2


def test_ternary_zero_vector():
    q = quantize_ternary([0.0, 0.0])
    assert q.levels.tolist() == [0.0, 0.0]
    assert mse([0.0, 0.0], q) == 0.0


def test_ternary_grid_finds_nothing_better(vector_battery):
    # Scored as sum(a^2) - 4v * sum(high) + 4v^2 * count, the grid minimum of
    # [16384, 0.99999] came out 0.49998998642, below the optimum 0.49999000005.
    for x in vector_battery[:12] + [np.array([16384.0, 0.99999])]:
        q = quantize_ternary(x)
        base = mse(x, q)
        top = float(np.max(np.abs(x)))
        grid = np.linspace(0.0, top, 4001)
        assert ternary_best_on_grid(x, grid) >= base - 1e-9 * max(1.0, base)


def test_ternary_reconstruction_values():
    x = [3.0, -3.0, 0.1, -0.1]
    q = quantize_ternary(x)
    v = float(q.levels[0])
    recon = reconstruct(q)
    assert set(np.round(recon / v, 12)) <= {-2.0, 0.0, 2.0}
    assert recon[0] == 2 * v and recon[1] == -2 * v
    assert recon[2] == 0.0 and recon[3] == 0.0


# --- two bit --------------------------------------------------------------


def test_ls2_matches_exhaustive_cut_enumeration(vector_battery):
    for x in vector_battery:
        got = mse(x, quantize_ls2(x))
        bound = exhaustive_two_bit_mse(x)
        assert got <= bound + 1e-9 * max(1.0, bound)


@pytest.mark.parametrize(
    "x",
    [
        [7.0],
        [1.0, 1.9],
        [5.0, 5.0, 5.0],
        [0.0, 0.0, 1.0],
        [1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
        [-1.0, 1.0, -1.0, 1.0],
        [1e-9, 2e-9, 1.0, 2.0],
        list(np.geomspace(0.001, 1000.0, 37)),
    ],
)
def test_ls2_edge_cases_meet_the_bound(x):
    q = quantize_ls2(x)
    got = mse(x, q)
    bound = exhaustive_two_bit_mse(x)
    assert got <= bound + 1e-9 * max(1.0, bound)
    assert q.levels[0] >= q.levels[1] >= 0.0
    assert is_foldable(x, q)


def test_ls2_exact_two_value_data():
    # Magnitudes {1, 3} are reconstructed exactly by levels (2, 1).
    q = quantize_ls2([3.0, -1.0])
    assert q.levels.tolist() == [2.0, 1.0]
    assert mse([3.0, -1.0], q) == 0.0
    assert np.array_equal(reconstruct(q), [3.0, -1.0])


def test_ls2_single_element_is_exact():
    x = [0.7]
    q = quantize_ls2(x)
    assert mse(x, q) == 0.0
    assert is_foldable(x, q)


def test_ls2_zero_vector():
    q = quantize_ls2([0.0, 0.0, 0.0])
    assert q.levels.tolist() == [0.0, 0.0]
    assert is_foldable([0.0, 0.0, 0.0], q)


def test_ls2_folding_assigns_nearest_value(vector_battery):
    for x in vector_battery[:10]:
        q = quantize_ls2(x)
        recon = reconstruct(q)
        v1, v2 = q.levels
        values = np.array([-v1 - v2, -v1 + v2, v1 - v2, v1 + v2])
        nearest = np.min(np.abs(np.asarray(x)[:, None] - values[None, :]), axis=1)
        chosen = np.abs(np.asarray(x) - recon)
        assert np.all(chosen <= nearest + 1e-12 * np.maximum(1.0, np.abs(x)))


def test_ls2_dominates_its_boundary_candidates(vector_battery):
    for x in vector_battery:
        e2 = mse(x, quantize_ls2(x))
        e1 = mse(x, quantize_ls1(x))
        et = mse(x, quantize_ternary(x))
        tol = 1e-12 * max(1.0, e1, et)
        assert e2 <= e1 + tol
        assert e2 <= et + tol


@pytest.mark.parametrize(
    "x, levels",
    [
        ([5.0, 5.0, 5.0], [2.5, 2.5]),
        ([1e-9, 2e-9, 1.0, 2.0], [0.75, 0.75]),
    ],
)
def test_ls2_ties_go_to_the_smaller_v1(x, levels):
    # The ternary candidate ties with the two-means cut here and has the
    # smaller v1.
    assert quantize_ls2(x).levels.tolist() == levels


# Repeated values and magnitudes far apart exercise run boundaries in the
# cut scan and the scaling of its sums.
tie_heavy_entries = st.sampled_from([0.0, 1e-300, -1e-300, 1.0, -1.0, 2.5, -2.5, 1e6, -1e6])
two_plane_entries = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), tie_heavy_entries
)
# Half the smallest subnormal rounds to 0, so a vector of it has no positive
# exact ternary level; the ternary property leaves subnormals out.
ternary_entries = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_subnormal=False),
    tie_heavy_entries,
)


def ulp_cluster(c, counts):
    """counts[j] copies of c + j ulps."""
    return [c + j * np.spacing(c) for j, m in enumerate(counts) for _ in range(m)]


# Clusters a few ulps wide: the rounded slice means of a cut inside one can
# put the lower group's mean above the upper group's.
ulp_clusters = st.builds(
    ulp_cluster,
    st.floats(min_value=1e-300, max_value=1e6),
    st.lists(st.integers(1, 12), min_size=1, max_size=4),
)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.lists(two_plane_entries, min_size=1, max_size=50), ulp_clusters))
@example(ulp_cluster(1.9646934829040668, [6, 8, 9]))
def test_ls2_property_beats_one_bit_and_folds(xs):
    x = np.asarray(xs, dtype=np.float64)
    q = quantize_ls2(x)
    assert q.levels[0] >= q.levels[1] >= 0.0
    assert is_foldable(x, q)
    e2 = mse(x, q)
    e1 = mse(x, quantize_ls1(x))
    assert e2 <= e1 + 1e-12 * max(1.0, e1)
    bound = exhaustive_two_bit_mse(x)
    assert e2 <= bound + 1e-9 * max(1.0, bound)


@settings(max_examples=150, deadline=None)
@given(st.lists(ternary_entries, min_size=1, max_size=50))
def test_ternary_property_fixed_point_and_grid_bound(xs):
    x = np.asarray(xs, dtype=np.float64)
    assert ternary_fixed_point_holds(x)
    q = quantize_ternary(x)
    assert is_foldable(x, q)
    base = mse(x, q)
    grid = np.linspace(0.0, float(np.max(np.abs(x))), 4001)
    assert ternary_best_on_grid(x, grid) >= base - 1e-9 * max(1.0, base)


# --- equivariance ---------------------------------------------------------


@pytest.mark.parametrize(
    "factor", [0.25, 0.5, 2.0, 4.0, 2.0**600, 2.0**-600, 2.0**1000, 2.0**-1000]
)
def test_power_of_two_scaling_is_exact(factor):
    for fit in (quantize_ls1, quantize_ls2, quantize_ternary):
        for seed in (31, 32):
            x = generate(SyntheticSpec("normal", 100, seed))
            base = fit(x)
            scaled = fit(factor * x)
            assert np.array_equal(scaled.levels, factor * base.levels)
            assert np.array_equal(scaled.planes, base.planes)


@pytest.mark.parametrize("factor", [1.7, 0.3])
def test_continuous_scaling_is_equivariant(factor):
    x = generate(SyntheticSpec("laplace", 150, 33, (1.0,)))
    for fit in (quantize_ls1, quantize_ls2, quantize_ternary):
        base = fit(x)
        scaled = fit(factor * x)
        np.testing.assert_allclose(scaled.levels, factor * base.levels, rtol=1e-12)
        assert np.array_equal(scaled.planes, base.planes)


def test_negation_flips_planes_keeps_levels():
    x = generate(SyntheticSpec("normal", 120, 34))
    for fit in (quantize_ls1, quantize_ls2, quantize_ternary):
        base = fit(x)
        neg = fit(-x)
        assert np.array_equal(neg.levels, base.levels)
        assert np.array_equal(neg.planes, -base.planes)


# --- Lloyd ----------------------------------------------------------------


def test_lloyd_two_point_data():
    lq = quantize_lloyd([-1.0, 1.0], 1)
    assert lq.codebook.tolist() == [-1.0, 1.0]
    assert lq.codes.tolist() == [0, 1]
    assert lq.converged
    assert mse([-1.0, 1.0], lq) == 0.0


def test_lloyd_two_cluster_data():
    x = [1.0, 1.0, 3.0, 3.0]
    lq = quantize_lloyd(x, 1)
    assert lq.codebook.tolist() == [1.0, 3.0]
    assert mse(x, lq) == 0.0


def test_lloyd_four_point_symmetric_is_exact():
    x = [-3.0, -1.0, 1.0, 3.0]
    lq = quantize_lloyd(x, 2)
    assert lq.codebook.tolist() == [-3.0, -1.0, 1.0, 3.0]
    assert mse(x, lq) == 0.0
    assert lq.converged


def test_lloyd_constant_data():
    # The ramp runs toward 0, so even 2^1023 keeps its empty codewords finite.
    for value in (2.5, -2.5, 0.0, 2.0**1023, -(2.0**1023)):
        for k in (1, 2):
            lq = quantize_lloyd([value] * 3, k)
            assert np.all(np.isfinite(lq.codebook)) and lq.converged
            assert mse([value] * 3, lq) == 0.0


def test_lloyd_fewer_distinct_values_than_codewords():
    x = [0.0, 0.0, 0.0, 1.0]
    lq = quantize_lloyd(x, 2)
    assert mse(x, lq) == 0.0
    assert lq.converged


def test_lloyd_reseeds_codewords_onto_outliers():
    # The ramp initialization leaves two interior codewords empty; only the
    # reseeding step can reach zero error on this data.
    x = [0.0] * 8 + [1.0, 1.001, 1.002]
    lq = quantize_lloyd(x, 2)
    assert mse(x, lq) == 0.0
    assert lq.converged


def test_lloyd_final_codes_are_nearest(vector_battery):
    for x in vector_battery[:6]:
        lq = quantize_lloyd(x, 2)
        dist_chosen = np.abs(x - lq.codebook[lq.codes])
        dist_best = np.min(np.abs(x[:, None] - lq.codebook[None, :]), axis=1)
        assert np.all(dist_chosen <= dist_best + 1e-12)


def test_lloyd_centroids_match_members_at_convergence():
    x = generate(SyntheticSpec("normal", 4000, 40))
    lq = quantize_lloyd(x, 2)
    assert lq.converged
    scale = float(np.max(np.abs(lq.codebook)))
    for j in range(lq.codebook.size):
        members = x[lq.codes == j]
        if members.size:
            assert abs(float(np.mean(members)) - lq.codebook[j]) <= 1e-6 * scale


def test_converged_lloyd_is_an_exact_fixed_point(vector_battery):
    # One more assignment and recentring step returns the fit bit for bit.
    for x in vector_battery:
        for k in (1, 2, 3):
            lq = quantize_lloyd(x, k)
            assert lq.converged
            codes = np.searchsorted(lq.thresholds, x, side="right")
            assert np.array_equal(codes, lq.codes)
            counts = np.bincount(codes, minlength=2**k)
            sums = np.bincount(codes, weights=x, minlength=2**k)
            occupied = counts > 0
            assert np.array_equal(sums[occupied] / counts[occupied], lq.codebook[occupied])


@pytest.mark.parametrize("power", [-600, -200, 200, 600, 1018, 1020])
def test_lloyd_power_of_two_scaling_is_exact(power):
    # A stopping rule relative to a floored codebook magnitude stopped the
    # 2^-200 fit after one step; unscaled cell sums overflowed at 2^1018.
    x = generate(SyntheticSpec("laplace", 5000, 4, (1.0,)))
    for k in (1, 2, 3):
        base, got = quantize_lloyd(x, k), quantize_lloyd(np.ldexp(x, power), k)
        assert np.array_equal(got.codebook, np.ldexp(base.codebook, power))
        assert np.array_equal(got.codes, base.codes)
        assert (got.iterations, got.converged) == (base.iterations, base.converged)


# Its cell sums overflow unless the fit runs on the unit scale.
NEAR_MAX = [1e308, 1.5e308, 1.7e308, -1e308, -1.6e308, 3e307]


def test_lloyd_near_the_float64_maximum_stays_finite():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lq = quantize_lloyd(NEAR_MAX, 1)
    assert np.all(np.isfinite(lq.codebook)) and np.all(np.isfinite(lq.thresholds))
    assert lq.converged
    assert np.array_equal(lq.codes, [1, 1, 1, 0, 0, 0])
    np.testing.assert_allclose(lq.codebook, [-2.3 / 3 * 1e308, 1.4e308], rtol=1e-15)


def test_no_fit_beats_the_optimal_k_level_quantizer(vector_battery):
    for x in vector_battery:
        fits = [(quantize_ls1(x), 2), (quantize_ternary(x), 3), (quantize_ls2(x), 4)]
        for k in (1, 2, 3):
            fits += [(quantize_greedy(x, k), 2**k), (quantize_lloyd(x, k), 2**k)]
        optimum = {levels: optimal_k_level_mse(x, levels) for levels in (2, 3, 4, 8)}
        for q, levels in fits:
            assert mse(x, q) >= optimum[levels] * (1 - 1e-12)


def test_lloyd_validation():
    with pytest.raises(ValueError):
        quantize_lloyd([1.0, 2.0], 0)
    with pytest.raises(ValueError):
        quantize_lloyd([1.0, 2.0], 17)
    with pytest.raises(ValueError):
        LloydQuantizer(
            codebook=np.array([2.0, 1.0]),
            thresholds=np.array([1.5]),
            codes=np.array([0]),
            iterations=1,
            converged=True,
        )
    with pytest.raises(ValueError, match="finite"):
        LloydQuantizer(
            codebook=np.array([1e308, np.inf]),
            thresholds=np.array([1.5e308]),
            codes=np.array([0]),
            iterations=1,
            converged=True,
        )
    # A codebook spanning more than the float64 maximum is still in order.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        LloydQuantizer(
            codebook=np.array([-1.7e308, 1.7e308]),
            thresholds=np.array([0.0]),
            codes=np.array([0, 1]),
            iterations=1,
            converged=True,
        )


# --- Lloyd -> scaled binary ----------------------------------------------


def test_lloyd_projection_symmetric_codebook_is_exact():
    x = [-3.0, -1.0, 1.0, 3.0]
    q = lloyd_to_scaled_binary(quantize_lloyd(x, 2))
    assert q.method == "lloyd"
    np.testing.assert_allclose(q.levels, [2.0, 1.0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(reconstruct(q), x, rtol=0, atol=1e-11)


def test_lloyd_projection_error_at_least_lloyd_error(vector_battery):
    for x in vector_battery[:8]:
        lq = quantize_lloyd(x, 2)
        q = lloyd_to_scaled_binary(lq)
        assert q.k == 2 and q.n == x.size
        assert q.levels[0] >= q.levels[1] >= 0.0
        # Slack covers rounding: the codewords are cell means as computed
        # in floating point, not the exact ones.
        assert mse(x, q) >= mse(x, lq) - 1e-8 * max(1.0, mse(x, lq))


def test_lloyd_projection_near_the_float64_maximum_is_finite():
    laplace = np.ldexp(generate(SyntheticSpec("laplace", 5000, 4, (1.0,))), 1020)
    for x in (NEAR_MAX, laplace):
        for k in (1, 2, 3):
            q = lloyd_to_scaled_binary(quantize_lloyd(x, k))
            assert np.all(np.isfinite(q.levels)) and q.levels[0] > 0


def test_lloyd_projection_requires_power_of_two_codebook():
    lq = LloydQuantizer(
        codebook=np.array([0.0, 1.0, 2.0]),
        thresholds=np.array([0.5, 1.5]),
        codes=np.array([0, 1, 2]),
        iterations=1,
        converged=True,
    )
    with pytest.raises(ValueError):
        lloyd_to_scaled_binary(lq)
