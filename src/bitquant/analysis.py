"""Quantization quality analysis: angles, sweeps, and condition curves.

The angle between a vector and its reconstruction is the scale-free way to
compare quantizers; 1-bit quantization of large standard normal vectors
lands near 37.07 degrees, the analytic angle arccos(sqrt(2/pi)).

A *condition curve* traces, over a threshold v, the mean magnitude of the
lower group (entries <= v), of the upper group (entries > v), and their
average.  Where the average curve crosses the identity line the threshold
reproduces itself, which is exactly the fixed-point condition behind the
two-bit solver; the crossing whose split objective is smallest is the
optimal v_1.  Curves exist in two flavors: empirical from a sample, and
closed-form for the standard normal population (error function based).
"""

from __future__ import annotations

import csv
import json
import math
import operator
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .quantizers import (
    _FAMILIES,
    LloydQuantizer,
    _from_unit,
    _is_fixed_point,
    _split_mse,
    _threshold,
    _to_unit,
    _two_bit_levels,
    objective,
    reconstruct,
)
from .tensor import _Record, as_float_vector, generate

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class AngleMetric:
    """Angle between a vector and its reconstruction, in degrees."""

    degrees: float

    def __post_init__(self):
        if not 0.0 <= self.degrees <= 180.0:
            raise ValueError("angle must lie in [0, 180] degrees")


def angle(x, y) -> AngleMetric:
    """Angle between two vectors; raises ValueError on zero-norm input."""
    x = as_float_vector(x)
    y = as_float_vector(y)
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    # Each vector on its own unit scale: same cosine, no overflow or underflow.
    x, y = (_to_unit(v.copy())[0] for v in (x, y))
    nx = float(np.linalg.norm(x))
    ny = float(np.linalg.norm(y))
    if nx == 0.0 or ny == 0.0:
        raise ValueError("angle is undefined for a zero-norm vector")
    cosine = float(np.dot(x, y)) / (nx * ny)
    cosine = min(1.0, max(-1.0, cosine))
    return AngleMetric(degrees=math.degrees(math.acos(cosine)))


# ---------------------------------------------------------------------------
# Method tokens


def parse_method(token: str) -> tuple[str, int]:
    """The (family, bits) pair a method token names.

    Fixed-width families are bare tokens (``ls1``, ``ls2``, ``ternary``).
    Variable-width families carry the width as a decimal suffix
    (``greedy-3``, ``lloyd-2``).  ``gf`` is accepted as an alias for
    ``greedy``.
    """
    family, dash, suffix = token.strip().lower().partition("-")
    if family == "gf":
        family = "greedy"
    if family not in _FAMILIES:
        raise ValueError(f"unknown method {token!r}")
    fixed = _FAMILIES[family][1]
    if fixed is not None:
        if dash:
            raise ValueError(f"unknown method {token!r}")
        return family, fixed
    if not dash:
        raise ValueError(f"method {token!r} needs a bit width (e.g. {token}-2)")
    if not (suffix.isascii() and suffix.isdigit()):
        raise ValueError(f"bit width in {token!r} must be an integer")
    k = int(suffix)
    if k < 1:
        raise ValueError(f"bit width {k} for {token!r} must be positive")
    return family, k


@dataclass(frozen=True)
class SweepRow:
    """One (method, data spec) cell of a sweep."""

    method: str
    k: int
    distribution: str
    n: int
    seed: int
    mse: float
    angle_degrees: float | None
    levels: tuple


@dataclass(frozen=True)
class SweepReport:
    """Sweep rows sorted by (method, k, distribution, n, seed), plus any
    per-row failures that were skipped."""

    rows: tuple
    failures: tuple = ()


def run_sweep(specs, methods) -> SweepReport:
    """Quantize every generated spec with every method; collect quality rows.

    A row that fails to fit is recorded in ``failures`` and skipped rather
    than aborting the remaining grid.
    """
    expanded = [parse_method(token) for token in methods]
    rows = []
    failures = []
    for spec in specs:
        x = generate(spec)
        for family, k in expanded:
            try:
                q = _FAMILIES[family][0](x, k)
                mse = objective(x, q).mse
                recon = reconstruct(q)
                try:
                    deg = angle(x, recon).degrees
                except ValueError:
                    deg = None
                if isinstance(q, LloydQuantizer):
                    levels = tuple(float(c) for c in q.codebook)
                else:
                    levels = tuple(float(v) for v in q.levels)
                rows.append(
                    SweepRow(
                        method=family,
                        k=k,
                        distribution=spec.label(),
                        n=spec.n,
                        seed=spec.seed,
                        mse=mse,
                        angle_degrees=deg,
                        levels=levels,
                    )
                )
            except Exception as exc:  # noqa: BLE001 - row isolation is the contract
                failures.append(f"{family}-{k} on {spec.label()} (seed {spec.seed}): {exc}")
    rows.sort(key=lambda r: (r.method, r.k, r.distribution, r.n, r.seed))
    return SweepReport(rows=tuple(rows), failures=tuple(failures))


def _finite(v):
    """``v`` with every non-finite float replaced by None, for strict JSON."""
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, dict):
        return {key: _finite(item) for key, item in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite(item) for item in v]
    return v


def emit_report(report: SweepReport, path) -> None:
    """Write a sweep report to ``path``: JSON when its name ends in
    ``.json``, in any case, and CSV otherwise.

    Floats are rendered with %.17g, so a written value parses back to the
    same double.  The levels column joins values with semicolons, and CSV
    fields that hold a comma, such as ``lognormal(0,1)``, are quoted.
    """
    if str(path).lower().endswith(".json"):
        payload = {"rows": [asdict(r) for r in report.rows]}
        Path(path).write_text(json.dumps(_finite(payload), indent=2, allow_nan=False) + "\n")
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(f.name for f in fields(SweepRow))
        for r in report.rows:
            writer.writerow((
                r.method, r.k, r.distribution, r.n, r.seed, format(r.mse, ".17g"),
                "" if r.angle_degrees is None else format(r.angle_degrees, ".17g"),
                ";".join(format(v, ".17g") for v in r.levels),
            ))


# ---------------------------------------------------------------------------
# Condition curves


@dataclass(frozen=True)
class Intersection:
    """A self-reproducing threshold and the split objective it achieves."""

    v: float
    objective: float


@dataclass(frozen=True, eq=False)
class ConditionCurve(_Record):
    """Sampled conditional-mean curves over a threshold grid.

    ``lower_mean`` is NaN where the lower group is empty; ``average`` treats
    an empty lower group as contributing zero, matching the two-bit solver's
    convention.  ``intersections`` hold every v with average(v) = v, and
    ``optimum`` the one with the smallest objective (NaN if there is none).
    """

    v: np.ndarray
    lower_mean: np.ndarray
    upper_mean: np.ndarray
    average: np.ndarray
    intersections: tuple
    optimum: float

    def __post_init__(self):
        for name in ("v", "lower_mean", "upper_mean", "average"):
            self._own(name, np.float64)


def _refine_and_collect(vs, d) -> list[float]:
    """Roots of a continuous ``d`` on the grid ``vs``: grid points where it
    is zero, and each sign change between neighbours refined by bisection."""
    found = []
    signs = np.sign([d(v) for v in vs])
    for i in range(vs.size - 1):
        if signs[i] == 0.0:
            found.append(float(vs[i]))
            continue
        if signs[i] * signs[i + 1] < 0.0:
            lo, hi = float(vs[i]), float(vs[i + 1])
            f_lo = d(lo)
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if mid == lo or mid == hi:
                    break
                f_mid = d(mid)
                if f_mid == 0.0:
                    lo = mid
                    break
                if (f_mid > 0.0) == (f_lo > 0.0):
                    lo, f_lo = mid, f_mid
                else:
                    hi = mid
            found.append(lo)
    if signs[-1] == 0.0:
        found.append(float(vs[-1]))
    return found


def _condition_curve(vs, lower, upper, found, e: int = 0) -> ConditionCurve:
    """Condition curve from the group means ``lower`` and ``upper`` at the
    thresholds ``vs`` (``lower`` NaN where that group is empty) and the
    Intersections ``found``.  All of them describe data on the unit scale
    of exponent e: the optimum is chosen on those objectives, and the curve
    maps thresholds, means and objectives back.
    """
    average = _threshold(np.nan_to_num(lower), upper)
    arrays = [_from_unit(arr, e) for arr in (vs, lower, upper, average)]
    optimum = min(found, key=lambda s: (s.objective, s.v)).v if found else math.nan
    intersections = tuple(
        Intersection(v=float(_from_unit(s.v, e)), objective=float(_from_unit(s.objective, e, 2)))
        for s in found
    )
    return ConditionCurve(*arrays, intersections, float(_from_unit(optimum, e)))


def condition_curve(x, grid: int) -> ConditionCurve:
    """Empirical condition curve of a sample over ``grid`` interior
    thresholds strictly between 0 and max |x|.

    With t sorted magnitudes a at or below v, the average is the two-bit
    threshold of the cut t on [a[t-1], a[t]), so the intersections are
    exactly the cuts that are fixed points.
    The curve is built on the unit scale of the magnitudes, so it is
    exactly equivariant under power-of-two scaling of x.
    """
    grid = operator.index(grid)
    x = as_float_vector(x)
    if grid < 2:
        raise ValueError("grid must be at least 2")
    mags = np.sort(np.abs(x))
    n = mags.size
    if mags[-1] == 0.0:
        raise ValueError("condition curve is undefined for the zero vector")
    mags, e = _to_unit(mags, mags[-1])
    # Group means for t = 0 .. n - 1, the lower one 0 when t = 0.
    t = np.arange(n, dtype=np.float64)
    lower = np.concatenate(([0.0], np.cumsum(mags[:-1]))) / np.maximum(t, 1)
    upper = np.cumsum(mags[::-1])[::-1] / (n - t)
    below = np.concatenate(([0.0], mags[:-1]))
    cuts = np.flatnonzero(_is_fixed_point(below, _threshold(lower, upper), mags))
    found = [
        Intersection(float(v1), _split_mse(mags, v1, v2))
        for v1, v2 in zip(*_two_bit_levels(lower[cuts], upper[cuts]))
    ]
    vs = np.linspace(0.0, float(mags[-1]), grid + 2)[1:-1]
    i = np.searchsorted(mags, vs, side="right")
    return _condition_curve(vs, np.where(i > 0, lower[i], np.nan), upper[i], found, e)


def _normal_moments(v: float):
    """Mass, first and second moment of |X|, X standard normal, at or below
    v and above v: ``(m0_lo, m1_lo, m2_lo, m0_hi, m1_hi, m2_hi)``."""
    phi = math.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi)
    m0_lo = math.erf(v / _SQRT2)
    m0_hi = math.erfc(v / _SQRT2)
    m1_lo = _SQRT_2_OVER_PI * (-math.expm1(-0.5 * v * v))
    m1_hi = _SQRT_2_OVER_PI * math.exp(-0.5 * v * v)
    return m0_lo, m1_lo, m0_lo - 2.0 * v * phi, m0_hi, m1_hi, m0_hi + 2.0 * v * phi


def _population_means(moments, v: float) -> tuple[float, float]:
    """Means of |X| at or below v and above v from ``moments(v)``, laid out
    as :func:`_normal_moments`; the lower one is 0 where it has no mass."""
    m0_lo, m1_lo, _, m0_hi, m1_hi, _ = moments(v)
    # Far tail: the upper conditional mean approaches v itself.
    return m1_lo / m0_lo if m0_lo > 0.0 else 0.0, m1_hi / m0_hi if m0_hi > 0.0 else v


def _population_mse(moments, v1: float, v2: float) -> float:
    """Population mean squared error of the reconstruction levels
    {v1 - v2, v1 + v2} applied to |X| split at v1, from ``moments(v1)``."""
    m0_lo, m1_lo, m2_lo, m0_hi, m1_hi, m2_hi = moments(v1)
    lo, hi = v1 - v2, v1 + v2
    return (
        m2_lo - 2.0 * lo * m1_lo + lo * lo * m0_lo
        + m2_hi - 2.0 * hi * m1_hi + hi * hi * m0_hi
    )


def _population_curve(moments, vs) -> ConditionCurve:
    """Condition curve over ``vs`` of a population with the conditional
    ``moments(v)`` of |X|; intersections are sign changes refined by bisection."""
    roots = _refine_and_collect(vs, lambda v: _threshold(*_population_means(moments, v)) - v)
    found = [
        Intersection(v, _population_mse(moments, *_two_bit_levels(*_population_means(moments, v))))
        for v in roots
    ]
    means = np.array([_population_means(moments, v) for v in vs])
    return _condition_curve(vs, *means.T, found)


def normal_split_mse(v1: float, v2: float) -> float:
    """Population mse of the levels {v1 -+ v2} on |X|, X standard normal, split at v1."""
    return _population_mse(_normal_moments, v1, v2)


def normal_condition_curve(grid: int) -> ConditionCurve:
    """Closed-form condition curve for the standard normal population over
    ``grid`` thresholds in (0, 4]."""
    grid = operator.index(grid)
    if grid < 2:
        raise ValueError("grid must be at least 2")
    return _population_curve(_normal_moments, np.linspace(0.0, 4.0, grid + 1)[1:])
