import csv
import json
import math
import re
import runpy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitquant import (
    AngleMetric,
    SplitMix64,
    SweepReport,
    SyntheticSpec,
    angle,
    condition_curve,
    emit_report,
    generate,
    normal_condition_curve,
    normal_split_mse,
    parse_method,
    quantize_ls2,
    run_sweep,
)
from bitquant.analysis import _refine_and_collect

from oracles import fixed_point_cuts
from test_acceptance import FROZEN_LEVELS

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
ROOTS_TOOL = Path(__file__).resolve().parents[1] / "tools" / "population_roots.py"


# --- angles ---------------------------------------------------------------


def test_angle_reference_directions():
    assert angle([1.0, 0.0], [0.0, 1.0]).degrees == pytest.approx(90.0)
    assert angle([1.0, 2.0], [2.0, 4.0]).degrees == pytest.approx(0.0, abs=1e-5)
    assert angle([1.0, 0.0], [-1.0, 0.0]).degrees == pytest.approx(180.0)
    assert angle([1.0, 0.0], [1.0, 1.0]).degrees == pytest.approx(45.0)


def test_angle_validation():
    with pytest.raises(ValueError):
        angle([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        angle([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        AngleMetric(degrees=-1.0)
    with pytest.raises(ValueError):
        AngleMetric(degrees=181.0)


def test_angle_is_scale_invariant():
    x = generate(SyntheticSpec("normal", 200, 3))
    y = generate(SyntheticSpec("normal", 200, 4))
    base = angle(x, y).degrees
    assert angle(3.0 * x, 0.25 * y).degrees == pytest.approx(base, abs=1e-10)
    # Squares of these overflow or underflow unless each vector is scaled.
    assert angle(np.ldexp(x, 600), np.ldexp(y, -600)).degrees == base
    assert angle(np.ldexp(x, -600), np.ldexp(y, 600)).degrees == base
    for factor in (1e170, 1e-170):
        assert angle(factor * x, factor * y).degrees == pytest.approx(base, abs=1e-10)


# --- method tokens --------------------------------------------------------


def test_parse_method_table():
    assert parse_method("ls1") == ("ls1", 1)
    assert parse_method("LS2") == ("ls2", 2)
    assert parse_method("ternary") == ("ternary", 2)
    assert parse_method("greedy-3") == ("greedy", 3)
    assert parse_method("gf-4") == ("greedy", 4)
    assert parse_method("lloyd-2") == ("lloyd", 2)


def test_parse_method_errors():
    with pytest.raises(ValueError):
        parse_method("vq")
    with pytest.raises(ValueError):
        parse_method("greedy-0")
    with pytest.raises(ValueError):
        parse_method("greedy")  # no bit width
    with pytest.raises(ValueError, match="unknown method 'ls1-2'"):
        parse_method("ls1-2")  # fixed-width families take no suffix
    with pytest.raises(ValueError, match="'greedy-x' must be an integer"):
        parse_method("greedy-x")
    with pytest.raises(ValueError, match="'lloyd-2.5' must be an integer"):
        parse_method("lloyd-2.5")
    # Only ASCII decimal digits: int() would read each of these as a width.
    for token in ("lloyd-1_6", "greedy-+3", "greedy- 3"):
        message = f"bit width in '{token}' must be an integer"
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_method(token)


# --- sweeps ---------------------------------------------------------------


def small_specs():
    return [
        SyntheticSpec("normal", 64, 0),
        SyntheticSpec("laplace", 64, 1, (1.0,)),
    ]


def test_run_sweep_rows_and_order():
    report = run_sweep(small_specs(), ["ls2", "ls1", "greedy-2"])
    assert not report.failures
    assert len(report.rows) == 6
    keys = [(r.method, r.k, r.distribution, r.n, r.seed) for r in report.rows]
    assert keys == sorted(keys)
    for r in report.rows:
        assert r.mse >= 0.0
        assert r.angle_degrees is None or 0.0 <= r.angle_degrees <= 180.0
        assert len(r.levels) == r.k


def test_run_sweep_is_deterministic():
    a = run_sweep(small_specs(), ["ternary", "lloyd-1"])
    b = run_sweep(small_specs(), ["ternary", "lloyd-1"])
    assert a == b


def test_run_sweep_isolates_row_failures():
    report = run_sweep(small_specs(), ["ls1", "lloyd-17"])
    assert len(report.rows) == 2  # the ls1 rows survive
    assert len(report.failures) == 2
    assert all("lloyd-17" in f for f in report.failures)


def test_run_sweep_lloyd_rows_report_codebook():
    report = run_sweep([SyntheticSpec("normal", 64, 5)], ["lloyd-2"])
    (row,) = report.rows
    assert len(row.levels) == 4
    assert list(row.levels) == sorted(row.levels)


def test_emit_report_csv_round_trip(tmp_path):
    # A two-parameter label such as lognormal(0,1) holds a comma.
    specs = small_specs() + [SyntheticSpec("lognormal", 64, 2, (0.0, 1.0))]
    report = run_sweep(specs, ["ls2"])
    path = tmp_path / "sweep.csv"
    emit_report(report, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(report.rows)
    for parsed, original in zip(rows, report.rows):
        assert parsed["method"] == original.method
        assert int(parsed["k"]) == original.k
        assert parsed["distribution"] == original.distribution
        assert float(parsed["mse"]) == original.mse  # %.17g is value-exact
        levels = tuple(float(t) for t in parsed["levels"].split(";"))
        assert levels == original.levels


def test_emit_report_json_round_trip(tmp_path):
    report = run_sweep(small_specs(), ["ls1"])
    path = tmp_path / "sweep.json"
    emit_report(report, path)
    payload = json.loads(path.read_text())
    assert len(payload["rows"]) == 2
    assert payload["rows"][0]["mse"] == report.rows[0].mse


def test_emit_report_picks_its_format_from_the_name(tmp_path):
    report = run_sweep(small_specs(), ["ls1"])
    for name in ("r.json", "R.JSON"):
        emit_report(report, tmp_path / name)
        assert len(json.loads((tmp_path / name).read_text())["rows"]) == 2
    emit_report(report, str(tmp_path / "r.csv"))
    assert (tmp_path / "r.csv").read_text().startswith("method,k,")


def test_emit_report_json_writes_non_finite_as_null(tmp_path):
    from dataclasses import replace

    base_row = run_sweep([SyntheticSpec("normal", 8, 0)], ["ls1"]).rows[0]
    row = replace(base_row, mse=math.inf, levels=(math.nan, 1.0))
    path = tmp_path / "sweep.json"
    emit_report(SweepReport(rows=(row,)), path)
    parsed = json.loads(path.read_text())["rows"][0]
    assert parsed["mse"] is None and parsed["levels"] == [None, 1.0]


def test_emit_report_blank_angle_for_none(tmp_path):
    from dataclasses import replace

    base_row = run_sweep([SyntheticSpec("normal", 8, 0)], ["ls1"]).rows[0]
    row = replace(base_row, angle_degrees=None)
    path = tmp_path / "sweep.csv"
    emit_report(SweepReport(rows=(row,)), path)
    line = path.read_text().splitlines()[1]
    assert ",," in line  # empty angle field


def test_emit_report_writes_csv_to_any_other_name(tmp_path):
    report = run_sweep(small_specs(), ["ls1"])
    for name in ("r.bin", "r.json.txt", "json"):
        emit_report(report, tmp_path / name)
        assert (tmp_path / name).read_text().startswith("method,k,")


# --- empirical condition curves -------------------------------------------


def test_condition_curve_validation():
    with pytest.raises(ValueError):
        condition_curve([1.0, 2.0], 1)
    with pytest.raises(ValueError):
        condition_curve([0.0, 0.0], 50)


def test_condition_curve_shapes_and_bounds():
    x = generate(SyntheticSpec("normal", 5000, 8))
    curve = condition_curve(x, 200)
    assert curve.v.size == 200
    assert np.all(curve.v > 0)
    assert float(curve.v[-1]) < float(np.max(np.abs(x)))
    ok = ~np.isnan(curve.lower_mean)
    assert np.all(curve.lower_mean[ok] <= curve.average[ok] + 1e-12)
    assert np.all(curve.average <= curve.upper_mean + 1e-12)
    assert np.all(np.diff(curve.upper_mean) >= -1e-9)


def test_condition_curve_optimum_matches_two_bit_level():
    x = generate(SyntheticSpec("normal", 20000, 9))
    curve = condition_curve(x, 400)
    v1 = float(quantize_ls2(x).levels[0])
    assert curve.intersections
    assert curve.optimum == pytest.approx(v1, rel=1e-13)


def test_condition_curve_lower_mean_nan_below_smallest_magnitude():
    x = [1.0, -1.5, 2.0]
    curve = condition_curve(x, 100)
    below = curve.v < 1.0
    assert np.all(np.isnan(curve.lower_mean[below]))
    assert not np.any(np.isnan(curve.upper_mean))


@pytest.mark.parametrize("power", [600, -600])
def test_condition_curve_power_of_two_scaling_is_exact(power):
    x = generate(SyntheticSpec("normal", 2000, 3))
    base = condition_curve(x, 50)
    curve = condition_curve(np.ldexp(x, power), 50)
    for name in ("v", "lower_mean", "upper_mean", "average"):
        expected = np.ldexp(getattr(base, name), power)
        assert np.array_equal(getattr(curve, name), expected, equal_nan=True)
    assert curve.optimum == np.ldexp(base.optimum, power)
    assert len(curve.intersections) == len(base.intersections) > 0
    with np.errstate(over="ignore"):
        for got, want in zip(curve.intersections, base.intersections):
            assert got.v == np.ldexp(want.v, power)
            # 2^1200 overflows to inf and 2^-1200 underflows to 0, as the
            # true objectives do.
            assert got.objective == np.ldexp(want.objective, 2 * power)


@pytest.mark.parametrize("factor", [1e170, 1e-170])
def test_condition_curve_optimum_at_extreme_scales(factor):
    rng = SplitMix64(0)
    # Three clusters give three intersections, and the best is the largest v.
    clusters = np.concatenate(
        [rng.normal(1000), 4 + 0.3 * rng.normal(300), 9 + 0.3 * rng.normal(200)]
    )
    for x in (generate(SyntheticSpec("normal", 2000, 3)), clusters):
        base = condition_curve(x, 50)
        curve = condition_curve(x * factor, 50)
        assert len(curve.intersections) == len(base.intersections) > 0
        assert curve.optimum == pytest.approx(base.optimum * factor, rel=1e-12)


def running_sum_average(x, v):
    """The empirical curve's average at threshold v, from running sums of
    the sorted magnitudes times 2^e as the curve forms its group means."""
    mags = np.sort(np.abs(x))
    e = -int(np.frexp(mags[-1])[1])
    mags = np.ldexp(mags, e)
    t = int(np.searchsorted(mags, np.ldexp(v, e), side="right"))
    lower = np.cumsum(mags[:t])[-1] / t if t > 0 else 0.0
    upper = np.cumsum(mags[t:][::-1])[-1] / (mags.size - t)
    return np.ldexp(0.5 * (lower + upper), -e)


# Integers times a power of two keep every running sum and slice sum exact,
# so the curve's means and the oracle's slice means agree bit for bit.
exact_vectors = st.builds(
    lambda ints, power: np.ldexp(np.array(ints, dtype=np.float64), power),
    st.lists(st.integers(-(2**20), 2**20), min_size=1, max_size=60).filter(any),
    st.integers(-60, 60),
)
float_vectors = st.lists(
    st.one_of(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_subnormal=False),
        st.sampled_from([1e-300, -1.0, 2.5, 1e6]),
    ),
    min_size=1,
    max_size=50,
).filter(any)


@settings(max_examples=150, deadline=None)
@given(exact_vectors, float_vectors)
@example(np.array([1.0, -3.0, 4.0]), [1.0])  # level 3 at cut 2 equals a[1]
def test_condition_curve_intersections_are_the_exact_fixed_points(exact, xs):
    curve = condition_curve(exact, 7)
    mags = np.sort(np.abs(exact))
    cuts = [int(np.searchsorted(mags, s.v, side="right")) for s in curve.intersections]
    assert cuts == fixed_point_cuts(exact)
    for x in (exact, np.asarray(xs, dtype=np.float64)):
        curve = condition_curve(x, 7)
        assert np.array_equal(curve.average, [running_sum_average(x, v) for v in curve.v])
        for s in curve.intersections:
            assert running_sum_average(x, s.v) == s.v
        assert curve.optimum in [s.v for s in curve.intersections]


def test_sign_changes_are_found_at_any_scale():
    vs = np.array([1.0, 2.0, 3.0])
    for scale in (1e-170, 1.0, 1e170):

        def d(v, scale=scale):
            return (2.5 - v) * scale

        assert _refine_and_collect(vs, d) == [2.5]


# --- analytic normal curves -----------------------------------------------


def test_normal_curve_limits():
    curve = normal_condition_curve(500)
    # For small v the lower conditional mean behaves like v / 2, and the
    # upper mean approaches the half-normal mean sqrt(2/pi).
    assert curve.lower_mean[0] == pytest.approx(float(curve.v[0]) / 2.0, rel=1e-3)
    assert curve.upper_mean[0] == pytest.approx(SQRT_2_OVER_PI, abs=1e-2)
    # Far out the conditional tail mean hugs the threshold itself.
    assert curve.upper_mean[-1] == pytest.approx(curve.v[-1], rel=0.1)


def test_normal_curve_fixed_point_constants():
    curve = normal_condition_curve(800)
    assert curve.intersections
    assert curve.optimum == pytest.approx(0.981598821568, abs=1e-9)
    best = min(curve.intersections, key=lambda s: s.objective)
    assert best.objective == pytest.approx(0.117481847829, abs=1e-9)


def test_normal_split_mse_half_normal_case():
    # With a single level at the half-normal mean the error is 1 - 2/pi.
    got = normal_split_mse(SQRT_2_OVER_PI, 0.0)
    assert got == pytest.approx(1.0 - 2.0 / math.pi, abs=1e-12)


def test_normal_split_mse_at_frozen_optimum():
    v1, v2 = 0.981598821568, 0.528818786931
    assert normal_split_mse(v1, v2) == pytest.approx(0.117481847829, abs=1e-9)
    # Perturbing either level makes the population objective worse.
    base = normal_split_mse(v1, v2)
    for dv1, dv2 in ((1e-3, 0.0), (-1e-3, 0.0), (0.0, 1e-3), (0.0, -1e-3)):
        assert normal_split_mse(v1 + dv1, v2 + dv2) > base


def test_normal_curve_validation():
    with pytest.raises(ValueError):
        normal_condition_curve(1)


def test_empirical_curve_approaches_analytic_optimum():
    x = generate(SyntheticSpec("normal", 400_000, 10))
    emp = condition_curve(x, 300)
    assert emp.optimum == pytest.approx(0.981598821568, abs=5e-3)


# --- population roots tool ------------------------------------------------


# The tool's whole output, every root of both populations included.
ROOTS_TOOL_STDOUT = """\
== standard normal ==
  two-bit root: v1=0.981598821568 v2=0.528818786931 mse=0.117481847829
  two-bit GLOBAL: v1=0.981598821568 v2=0.528818786931 mse=0.117481847829
  ternary root: v=0.612003180962 mse=0.190174039248
== laplace(1) ==
  two-bit root: v1=1.593624260040 v2=1.000000000000 mse=0.352389762108
  two-bit GLOBAL: v1=1.593624260040 v2=1.000000000000 mse=0.352389762108
  ternary root: v=1.000000000000 mse=0.528482235314
"""


def test_population_roots_tool_reprints_the_frozen_levels(capsys):
    runpy.run_path(str(ROOTS_TOOL), run_name="__main__")
    out = capsys.readouterr().out
    assert out == ROOTS_TOOL_STDOUT
    sections = re.split(r"^== (.+) ==$", out, flags=re.M)[1:]
    printed = {
        "normal" if name == "standard normal" else name: {
            "ls2": re.search(r"GLOBAL: v1=(\S+) v2=(\S+)", body).groups(),
            "ternary": re.findall(r"ternary root: v=(\S+)", body),
        }
        for name, body in zip(sections[::2], sections[1::2])
    }
    expected = {
        label: {
            "ls2": tuple(format(v, ".12f") for v in levels["ls2"]),
            "ternary": [format(levels["ternary"], ".12f")],
        }
        for label, levels in FROZEN_LEVELS.items()
    }
    assert printed == expected
