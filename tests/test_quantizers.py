import math
import time
import warnings
from dataclasses import replace
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
from bitquant import quantizers
from bitquant.quantizers import _best_levels, _candidates, _sorted_quantiles, _to_unit
from conftest import make_vectors

from oracles import (
    exhaustive_two_bit_mse,
    lloyd_reference,
    optimal_k_level_mse,
    run_boundary_two_plane_fit,
    split_mse_selection,
    ternary_best_on_grid,
)


def mse(x, q) -> float:
    return objective(x, q).mse


# --- sign and containers --------------------------------------------------


def test_sign_of_zero_is_plus_one():
    assert sign(0.0) == 1
    assert sign(-0.0) == 1
    out = sign(np.array([-2.0, 0.0, 3.0]))
    assert out.dtype == np.int8
    assert out.tolist() == [-1, 1, 1]


def test_sign_matches_the_where_form_bitwise():
    def where_form(a):
        return np.where(a < 0, -1, 1).astype(np.int8)

    values = np.array([-0.0, 0.0, -np.inf, np.inf, -5e-324, 5e-324, -1.0, 2.0])
    matrix = np.arange(-6.0, 6.0).reshape(3, 4).T
    for a in (values, matrix, matrix[::2, ::-1]):
        out = sign(a)
        assert out.dtype == np.int8 and out.shape == a.shape
        assert out.tobytes() == where_form(a).tobytes()
    for v in (-0.0, 0.0, -np.inf, np.inf, -3.0, np.float64(-2.0), np.array(-1.0)):
        got = sign(v)
        assert type(got) is int and got == int(where_form(np.asarray(v)))


def test_quantization_container_validation():
    good_planes = np.ones((1, 3), dtype=np.int8)
    with pytest.raises(ValueError, match="levels must be finite and nonnegative"):
        ScaledBinaryQuantization(np.array([-0.5]), good_planes, "ls1")
    with pytest.raises(ValueError, match="plane entries must be"):
        ScaledBinaryQuantization(np.array([1.0]), np.zeros((1, 3)), "ls1")
    with pytest.raises(ValueError, match="unknown method 'banana'"):
        ScaledBinaryQuantization(np.array([1.0]), good_planes, "banana")
    with pytest.raises(ValueError, match="ls2 levels must be nonincreasing"):
        ScaledBinaryQuantization(np.array([1.0, 2.0]), np.ones((2, 3)), "ls2")
    with pytest.raises(ValueError, match="ls2 levels must be nonincreasing"):
        ScaledBinaryQuantization(np.array([1.0, 1.0 + 2**-52]), np.ones((2, 3)), "ls2")
    with pytest.raises(ValueError, match="ternary requires two equal levels"):
        ScaledBinaryQuantization(np.array([2.0, 1.0]), np.ones((2, 3)), "ternary")
    with pytest.raises(ValueError, match="ternary requires two equal levels"):
        ScaledBinaryQuantization(np.array([1.0]), good_planes, "ternary")
    # Greedy levels are reported in generation order and may increase.
    q = ScaledBinaryQuantization(np.array([1.0, 2.0]), np.ones((2, 3)), "greedy")
    assert q.k == 2 and q.n == 3
    # Equal levels and levels spanning the whole float64 range are
    # nonincreasing.
    ScaledBinaryQuantization(np.array([5e-324, 5e-324]), np.ones((2, 3)), "ls2")
    ScaledBinaryQuantization(np.array([1.7976931348623157e308, 0.0]), np.ones((2, 3)), "ls2")


@pytest.mark.parametrize(
    "levels,planes,message",
    [
        ([np.nan], [[1, -1]], "levels must be finite and nonnegative"),
        ([np.inf], [[1, -1]], "levels must be finite and nonnegative"),
        ([-np.inf], [[1, -1]], "levels must be finite and nonnegative"),
        ([1.0, np.nan], [[1], [1]], "levels must be finite and nonnegative"),
        ([], np.ones((0, 2)), "levels must be a nonempty 1-D array"),
        ([[1.0]], [[1, -1]], "levels must be a nonempty 1-D array"),
        ([1.0], [[1.5, -1.0]], "plane entries must be \\+1 or -1"),
        ([1.0], [[0, 1]], "plane entries must be \\+1 or -1"),
        ([1.0, 0.5], [[1, -1]], "planes must have shape"),
        ([1.0], [1, -1], "planes must have shape"),
        ([1.0], np.ones((1, 0)), "planes must have shape"),
    ],
)
def test_quantization_container_rejections(levels, planes, message):
    with pytest.raises(ValueError, match=message):
        ScaledBinaryQuantization(np.array(levels), np.array(planes), "greedy")


def test_quantization_is_read_only():
    q = quantize_ls1([1.0, -2.0])
    with pytest.raises(ValueError):
        q.levels[0] = 5.0
    with pytest.raises(ValueError):
        q.planes[0, 0] = -1


def test_quantization_stores_its_own_copies():
    # Neither the caller's buffer nor its levels array stays tied to the record.
    buf = np.ones((3, 4), dtype=np.int8)
    levels = np.array([2.0, 1.0])
    q = ScaledBinaryQuantization(levels, buf[:2], "ls2")
    buf[0, 0] = 7
    levels[0] = 9.0
    assert q.planes[0, 0] == 1 and q.levels[0] == 2.0


def test_reconstruct_rejects_other_types():
    with pytest.raises(TypeError, match="cannot reconstruct from object"):
        reconstruct(object())


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


@pytest.mark.parametrize(
    ("fit", "big_mse"),
    [(quantize_ls1, np.inf), (quantize_ls2, 3.0), (quantize_ternary, 3.0),
     (lambda x: quantize_greedy(x, 2), np.inf)],
    ids=["ls1", "ls2", "ternary", "greedy-2"],
)
def test_fits_whose_magnitudes_sum_past_the_float64_maximum(fit, big_mse):
    # Sum |x| overflows on both inputs although mean |x| does not.  Every
    # family reconstructs the second exactly; at this scale an error of one
    # ulp would already square past the float64 maximum.  On the first, ls2
    # and ternary miss only the 3.0; the ls1 and greedy-2 mse overflows
    # (greedy-2's reconstruction itself passes the float64 maximum).
    top = 2.0**1023
    big = [1.7e308, -1.7e308, 3.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = fit(big)
        assert np.isfinite(q.levels).all()
        assert objective(big, q).mse == big_mse
        q = fit([top, -top, top])
        assert np.isfinite(q.levels).all()
        assert objective([top, -top, top], q).mse == 0.0


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
    for x in ([0.0, 0.0, 0.0], [-0.0, 0.0, 0.0]):
        q = quantize_ls1(x)
        assert q.levels[0] == 0.0
        assert q.planes.tolist() == [[1, 1, 1]]
        assert mse(x, q) == 0.0
        # sign(-0.0) = +1, so greedy-2 keeps all +1 planes as well.
        q = quantize_greedy(x, 2)
        assert q.levels.tolist() == [0.0, 0.0]
        assert q.planes.tolist() == [[1, 1, 1], [1, 1, 1]]


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


@pytest.mark.parametrize(
    "bad,message",
    [
        ([np.nan, 1.0], "vector entries must be finite"),
        ([1.0, -np.inf], "vector entries must be finite"),
        ([[1.0, 2.0]], "expected a 1-D vector"),
        ([], "vector must hold at least one element"),
    ],
)
def test_foldable_planes_validates_x(bad, message):
    # The fits fold an x they have already validated; the public function
    # still checks its own.
    with pytest.raises(ValueError, match=message):
        foldable_planes(bad, [1.0, 0.5])


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
    assert np.array_equal(foldable_planes(x, q.levels), q.planes)


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
    q = quantize_ternary([-0.0, 0.0, 0.0])
    assert q.levels.tolist() == [0.0, 0.0]
    assert q.planes.tolist() == [[1, 1, 1], [1, 1, 1]]


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
    assert np.array_equal(foldable_planes(x, q.levels), q.planes)


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
    assert np.array_equal(foldable_planes(x, q.levels), q.planes)


def test_ls2_zero_vector():
    for x in ([0.0, 0.0, 0.0], [-0.0, 0.0, 0.0]):
        q = quantize_ls2(x)
        assert q.levels.tolist() == [0.0, 0.0]
        assert np.array_equal(foldable_planes(x, q.levels), q.planes)
        assert q.planes.tolist() == [[1, 1, 1], [1, 1, 1]]


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
    assert np.array_equal(foldable_planes(x, q.levels), q.planes)
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
    assert np.array_equal(foldable_planes(x, q.levels), q.planes)
    base = mse(x, q)
    grid = np.linspace(0.0, float(np.max(np.abs(x))), 4001)
    assert ternary_best_on_grid(x, grid) >= base - 1e-9 * max(1.0, base)


half_integers = st.integers(-8, 8).map(lambda i: i / 2)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.lists(st.one_of(tie_heavy_entries, half_integers), min_size=1, max_size=60),
        ulp_clusters,
    )
)
@example(generate(SyntheticSpec("normal", 3000, 7)).tolist())
@example([1.0] * 5)
@example(ulp_cluster(1.9646934829040668, [6, 8, 9]))
def test_two_plane_fits_match_the_run_boundary_scan(xs):
    # Masked gains over every cut pick the same cuts as a scan of the run
    # boundaries alone, down to the bits of the levels and the planes.
    x = np.asarray(xs, dtype=np.float64)
    for fit, method in ((quantize_ls2, "ls2"), (quantize_ternary, "ternary")):
        q = fit(x)
        levels, planes = run_boundary_two_plane_fit(x, method)
        assert q.levels.tobytes() == levels.tobytes()
        assert np.array_equal(q.planes, planes)


def degenerate_vectors():
    """Constant, few-ulp, tiny-lower-group, run-heavy and extreme-scale data."""
    out = []
    for n in (1, 2, 3, 7, 100, 1000):
        normal = generate(SyntheticSpec("normal", n, n))
        out += [
            np.full(n, 0.7),
            np.full(n, 1e300),
            np.full(n, -3e-310),
            np.array(ulp_cluster(1.9646934829040668, [n, n + 1, 2])),
            np.where(np.arange(n) < max(1, n // 50), 1e-12, 1.0) * normal,
            np.round(2.0 * normal) / 2.0,
            1e-310 * normal,
            1e300 * normal,
        ]
    return out


@pytest.mark.parametrize("method", ["ls2", "ternary"])
def test_best_levels_is_the_split_mse_selection(method, vector_battery):
    # The screen on the cut sums keeps the choice that scoring every
    # candidate by its realized error makes, bit for bit and ties included.
    vectors = vector_battery + make_vectors(300, 3000, base_seed=7) + degenerate_vectors()
    for x in vectors:
        mags = np.sort(np.abs(x))
        if mags[-1] == 0.0:
            continue  # the zero vector has no candidates
        mags, _ = _to_unit(mags, mags[-1])
        candidates = _candidates(mags, method)
        expected = split_mse_selection(mags, candidates)
        got = _best_levels(mags, candidates)
        assert [v.hex() for v in got] == [v.hex() for v in expected]


def test_an_exact_tie_is_left_to_the_split_mse(monkeypatch):
    # On constant magnitudes every candidate reconstructs the data exactly,
    # so their brackets overlap: each is scored by _split_mse, and the tie
    # at error 0 goes to the smaller v1.
    scored = []
    split_mse = quantizers._split_mse
    monkeypatch.setattr(
        quantizers, "_split_mse", lambda *args: scored.append(args) or split_mse(*args)
    )
    mags, _ = _to_unit(np.full(10, 0.3))
    candidates = _candidates(mags, "ls2")
    assert len({c[0] for c in candidates}) == 2
    best = _best_levels(mags, candidates)
    assert len(scored) == len(candidates)
    assert best == split_mse_selection(mags, candidates)
    assert best[0] == min(c[0] for c in candidates)
    scored.clear()
    normal, _ = _to_unit(np.sort(np.abs(generate(SyntheticSpec("normal", 1000, 3)))))
    _best_levels(normal, _candidates(normal, "ls2"))
    assert scored == []


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


subnormals = (
    st.integers(-(2**52) + 1, 2**52 - 1).filter(bool).map(lambda m: math.ldexp(m, -1074))
)


@st.composite
def subnormal_scalings(draw):
    """A finite vector holding a nonzero subnormal entry, and a power k >= 0
    that scales it exactly, keeps it finite and lifts its largest magnitude
    to at least 2^-900."""
    xs = draw(st.lists(st.one_of(subnormals, st.floats(allow_nan=False, allow_infinity=False))))
    x = np.array(draw(st.permutations(xs + [draw(subnormals)])))
    top = math.frexp(float(np.abs(x).max()))[1]
    k = draw(st.integers(max(0, -899 - top), 1024 - top))
    return x, k


@settings(max_examples=300, deadline=None)
@given(subnormal_scalings())
@example((np.ldexp([-11.0, 11.0], -1074), 171))
@example((np.ldexp([20.0, 12.0, 12.0], -1074), 170))
def test_two_plane_levels_are_equivariant_on_subnormal_data(scaling):
    # Both fits run on the unit scale of _to_unit, which x and 2^k x share
    # exactly, so the levels of x are those of 2^k x scaled back, where the
    # latter are normal floats or 0 and so not rounded twice.  Planes are
    # left out: a level rounded to the subnormal grid can fold a sign the
    # other way.
    x, k = scaling
    for fit in (quantize_ls2, quantize_ternary):
        scaled = fit(np.ldexp(x, k)).levels
        assert ((scaled == 0.0) | (scaled >= 2.0**-1022)).all()
        assert np.array_equal(fit(x).levels, np.ldexp(scaled, -k))


def test_ls2_on_subnormal_data_rounds_its_unit_scale_choice():
    # The cost quantize_ls2's docstring states: on the unit scale the levels
    # (11, 0) and (5.5, 5.5) both fit [-11, 11] exactly, the tie goes to the
    # smaller v1, and 5.5 * 2^-1074 rounds to 6 * 2^-1074 on x's grid.  So
    # ls2 misses each entry by 2^-1074 where ls1 is exact.
    x = np.ldexp([-11.0, 11.0], -1074)
    q = quantize_ls2(x)
    assert np.ldexp(q.levels, 1074).tolist() == [6.0, 6.0]
    assert np.ldexp(reconstruct(q), 1074).tolist() == [-12.0, 12.0]
    assert np.array_equal(reconstruct(quantize_ls1(x)), x)


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


def test_lloyd_matches_the_element_loop_reference(vector_battery):
    # The same cells, steps and codes as the per-element loop; the cell
    # sums differ only in summation order.
    reseeding = [[0.0, 1.0, 2.0, 4.0, 5.0], [0.0] * 12 + [13.0, 13.25, 13.5, 14.0]]
    for x in vector_battery + reseeding:
        for k in (1, 2, 3):
            lq = quantize_lloyd(x, k)
            codebook, codes, iterations, converged = lloyd_reference(x, k)
            assert (lq.iterations, lq.converged) == (iterations, converged)
            assert np.array_equal(lq.codes, codes)
            scale = float(np.max(np.abs(codebook)))
            np.testing.assert_allclose(lq.codebook, codebook, rtol=0, atol=1e-13 * scale)


def test_lloyd_reseed_ties_go_to_the_smaller_datum():
    # The quantile start leaves codeword 2 empty, and 1, 2, 4 and 5 all lie
    # 0.5 from their cell means: the smallest, 1, reseeds it in either order.
    for x in ([0.0, 1.0, 2.0, 4.0, 5.0], [5.0, 4.0, 2.0, 1.0, 0.0]):
        lq = quantize_lloyd(x, 2)
        assert lq.codebook.tolist() == [0.0, 1.0, 2.0, 4.5]
        assert lq.reseeds == 1 and lq.converged


def test_lloyd_reseeds_move_inward_from_a_cell_end():
    # The ramp start 0, 2, ..., 14 puts 13, 13.25, 13.5 and 14 in the top
    # cell (mean 13.4375) and leaves six codewords empty.  They are reseeded
    # at 14, then at 13 and 13.25 inward from the low end, then at 13.5; the
    # last two keep their ramp values 10 and 12, as no datum is left with a
    # nonzero distance.
    x = [0.0] * 12 + [13.0, 13.25, 13.5, 14.0]
    lq = quantize_lloyd(x, 3)
    assert lq.codebook.tolist() == [0.0, 10.0, 12.0, 13.0, 13.25, 13.4375, 13.5, 14.0]
    assert lq.reseeds == 4 and lq.converged
    assert mse(x, lq) == 0.0


def test_lloyd_reseed_count_stays_out_of_equality_and_repr():
    lq = quantize_lloyd([0.0, 1.0, 2.0, 4.0, 5.0], 2)
    bare = replace(lq, reseeds=None)
    assert lq.reseeds == 1 and bare.reseeds is None
    assert lq == bare
    assert repr(lq) == repr(bare) and "reseeds" not in repr(lq)
    assert quantize_lloyd(np.linspace(-1.0, 1.0, 64), 2).reseeds == 0


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(st.lists(two_plane_entries, min_size=1, max_size=50), ulp_clusters),
    st.integers(1, 3),
    st.data(),
)
def test_lloyd_property_ignores_input_order(xs, k, data):
    x = np.asarray(xs, dtype=np.float64)
    p = np.array(data.draw(st.permutations(range(x.size))), dtype=np.intp)
    lq, got = quantize_lloyd(x, k), quantize_lloyd(x[p], k)
    assert np.array_equal(got.codebook, lq.codebook)
    assert np.array_equal(got.thresholds, lq.thresholds)
    assert np.array_equal(got.codes, lq.codes[p])
    assert (got.iterations, got.converged, got.reseeds) == (
        lq.iterations, lq.converged, lq.reseeds
    )


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.lists(two_plane_entries, min_size=1, max_size=200), ulp_clusters),
    st.integers(0, 11),
)
def test_lloyd_start_equals_numpy_quantile(xs, k):
    x = np.asarray(xs, dtype=np.float64)
    q = (np.arange(2**k) + 0.5) / 2**k
    assert np.array_equal(_sorted_quantiles(np.sort(x), q), np.quantile(x, q))


def test_lloyd_start_at_k16_reads_the_sorted_data():
    # np.quantile took about a minute at this size, partitioning the data
    # around 65 536 interpolation indices; the fit needs well under a second.
    x = generate(SyntheticSpec("laplace", 1 << 18, 3, (1.0,)))
    started = time.perf_counter()
    lq = quantize_lloyd(x, 16)
    elapsed = time.perf_counter() - started
    assert lq.codebook.size == 1 << 16
    assert elapsed < 5.0, f"{elapsed:.2f} s"


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
            assert abs(float(np.mean(members)) - lq.codebook[j]) <= 1e-12 * scale


def test_converged_lloyd_is_an_exact_fixed_point(vector_battery):
    # One more assignment and recentring step returns the fit bit for bit:
    # the cells are slices of the sorted data, and their means are one
    # reduceat over the slices divided by the counts.
    for x in vector_battery:
        xs = np.sort(x)
        for k in (1, 2, 3):
            lq = quantize_lloyd(x, k)
            assert lq.converged
            codes = np.searchsorted(lq.thresholds, x, side="right")
            assert np.array_equal(codes, lq.codes)
            starts = np.concatenate(([0], np.searchsorted(xs, lq.thresholds, side="left")))
            counts = np.diff(starts, append=xs.size)
            occupied = counts > 0
            means = np.add.reduceat(xs, starts[occupied]) / counts[occupied]
            assert np.array_equal(means, lq.codebook[occupied])


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


@pytest.mark.parametrize("x", [NEAR_MAX, [1.7e308, 6.636675514034699e307]])
def test_ls2_is_optimal_where_the_group_means_sum_past_the_maximum(x):
    # The optimal cut's two group means sum past the float64 maximum; an
    # overflowing threshold failed its fixed-point test and a worse
    # candidate won, reconstructing 6.6e307 as 0.
    scaled = np.ldexp(x, -1000)
    base, got = quantize_ls2(scaled), quantize_ls2(x)
    assert np.array_equal(got.levels, np.ldexp(base.levels, 1000))
    assert np.array_equal(got.planes, base.planes)
    bound = exhaustive_two_bit_mse(scaled)
    assert mse(scaled, base) <= bound + 1e-9 * max(1.0, bound)


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
    def lloyd(codebook=(0.0, 1.0), thresholds=(0.5,), codes=(0, 1)):
        return LloydQuantizer(
            codebook=np.array(codebook), thresholds=np.array(thresholds),
            codes=np.array(codes, dtype=np.int64), iterations=1, converged=True,
        )

    with pytest.raises(ValueError, match="at least two codewords"):
        lloyd(codebook=(1.0,), thresholds=())
    with pytest.raises(ValueError, match="one threshold between each codeword pair"):
        lloyd(thresholds=(0.5, 0.7))
    with pytest.raises(ValueError, match="codes must be a nonempty 1-D array"):
        lloyd(codes=())
    for codes in ((0, 2), (-1, 0)):
        with pytest.raises(ValueError, match="codes must index the codebook"):
            lloyd(codes=codes)
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
