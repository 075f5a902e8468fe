"""Scaled binary quantizers.

A k-bit scaled binary quantization approximates a vector x by

    x  ~=  v_1 * s_1 + v_2 * s_2 + ... + v_k * s_k

where each level v_i is a nonnegative scalar and each plane s_i is a vector
of +-1 signs.  The quantizers here pick levels and planes to minimize mean
squared reconstruction error, each under its own structural constraint:

* ``quantize_ls1``: one bit; v = mean |x|, s = sign(x).  This is the error
  minimizer over all single-plane quantizations.
* ``quantize_ls2``: two bits restricted to foldable plane pairs, solved to
  global optimality by scanning cut positions of the sorted magnitudes.
* ``quantize_ternary``: two bits with tied levels v_1 = v_2 = v, so the
  reconstruction values are {-2v, 0, +2v}.
* ``quantize_greedy``: any k; fits one plane at a time to the running
  residual.  Its k = 1 fit is ``quantize_ls1``.
* ``quantize_lloyd``: an unconstrained 2^k-codeword scalar quantizer fitted
  by alternating assignment and recentering; a reference point rather than
  a scaled binary form.  ``lloyd_to_scaled_binary`` projects its result
  back into the k-plane representation.

Conventions used throughout (and relied on by exact tests):

* sign(0) = +1.
* A plane pair is *foldable* when s_i = sign(x - partial reconstruction of
  planes before i); equivalently each element is assigned to the nearest
  reconstruction value, with boundary ties going to the larger one.
* Group means over magnitudes are numpy reductions (pairwise summation) on
  ascending-sorted slices, in float64.  The cut scan splits sorted
  magnitudes into a lower group (<= v) and an upper group (> v).
* Candidate ties are broken by exact float comparison on the pair
  (objective, v_1), smaller first.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .tensor import _Record, as_float_vector


def sign(values):
    """Sign with sign(0) = +1; +-1 as int8, matching the input shape."""
    arr = np.asarray(values)
    out = 1 - 2 * (arr < 0).view(np.int8)
    if arr.ndim == 0:
        return int(out[()])
    return out


@dataclass(frozen=True, eq=False)
class ScaledBinaryQuantization(_Record):
    """Levels and sign planes of a k-bit scaled binary quantization.

    ``levels`` is a (k,) float64 array of nonnegative scalars and ``planes``
    a (k, n) int8 array of +-1 entries.  For every method except ``greedy``
    the levels are nonincreasing, and for ``ternary`` the two levels are
    equal.
    """

    levels: np.ndarray
    planes: np.ndarray
    method: str

    def __post_init__(self):
        levels = self._own("levels", np.float64)
        planes = np.asarray(self.planes)
        if levels.ndim != 1 or levels.size < 1:
            raise ValueError("levels must be a nonempty 1-D array")
        values = levels.tolist()
        # NaN fails both comparisons.
        if not all(0.0 <= v < math.inf for v in values):
            raise ValueError("levels must be finite and nonnegative")
        if planes.ndim != 2 or planes.shape[0] != levels.size or planes.shape[1] < 1:
            raise ValueError("planes must have shape (len(levels), n)")
        # Checked before the int8 cast, so 1.5 is reported against this rule.
        if not (np.abs(planes) == 1).all():
            raise ValueError("plane entries must be +1 or -1")
        self._own("planes", np.int8)
        if self.method not in _FAMILIES:
            raise ValueError(f"unknown method {self.method!r}")
        # Greedy keeps its levels in generation order, which residual
        # fitting does not sort; every other family's are nonincreasing.
        if self.method != "greedy" and any(b > a for a, b in zip(values, values[1:])):
            raise ValueError(f"{self.method} levels must be nonincreasing")
        if self.method == "ternary":
            if len(values) != 2 or values[0] != values[1]:
                raise ValueError("ternary requires two equal levels")

    @property
    def k(self) -> int:
        return int(self.levels.size)

    @property
    def n(self) -> int:
        return int(self.planes.shape[1])


@dataclass(frozen=True, eq=False)
class LloydQuantizer(_Record):
    """A fitted 2^k-codeword scalar quantizer.

    ``codebook`` holds the codewords sorted ascending, ``thresholds`` the
    midpoints between adjacent codewords (assignment boundaries, ties going
    up), and ``codes`` the per-element codeword indices under the final
    codebook.  ``reseeds`` is a diagnostic, the number of empty codewords
    the fit reseeded (None when not recorded); it takes no part in
    equality or repr.
    """

    codebook: np.ndarray
    thresholds: np.ndarray
    codes: np.ndarray
    iterations: int
    converged: bool
    reseeds: int | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        codebook = self._own("codebook", np.float64)
        thresholds = self._own("thresholds", np.float64)
        codes = self._own("codes", np.int64)
        if codebook.ndim != 1 or codebook.size < 2:
            raise ValueError("codebook must hold at least two codewords")
        if not np.isfinite(codebook).all():
            raise ValueError("codebook must be finite")
        # Compared directly: np.diff overflows when the codebook spans more
        # than the float64 maximum.
        if (codebook[1:] < codebook[:-1]).any():
            raise ValueError("codebook must be sorted ascending")
        if thresholds.shape != (codebook.size - 1,):
            raise ValueError("need one threshold between each codeword pair")
        if codes.ndim != 1 or codes.size < 1:
            raise ValueError("codes must be a nonempty 1-D array")
        if (codes < 0).any() or (codes >= codebook.size).any():
            raise ValueError("codes must index the codebook")

    @property
    def n(self) -> int:
        return int(self.codes.size)


@dataclass(frozen=True)
class QuantizationObjective:
    """Mean squared reconstruction error of a quantization."""

    mse: float


def reconstruct(q) -> np.ndarray:
    """Dequantize back to a float64 vector."""
    if isinstance(q, ScaledBinaryQuantization):
        return q.levels @ q.planes.astype(np.float64)
    if isinstance(q, LloydQuantizer):
        return q.codebook[q.codes]
    raise TypeError(f"cannot reconstruct from {type(q).__name__}")


def _to_unit(a, top=None):
    """``(a * 2^e, e)``, scaling the float64 array ``a`` in place, with e
    chosen to bring ``top`` (default max |a|) into [0.5, 1); e = 0 when top
    is 0.

    Scaling by 2^e is exact and leaves every comparison as it was, but keeps
    squares and sums of the data from overflowing near the float64 maximum
    and from underflowing for tiny magnitudes.
    """
    if top is None:
        top = np.abs(a).max()
    e = -math.frexp(top)[1]
    return np.ldexp(a, e, out=a), e


def _from_unit(value, e: int, power: int = 1):
    """A degree-``power`` result on the unit scale of :func:`_to_unit`
    mapped back by 2^(-power * e); inf only where the true value overflows."""
    with np.errstate(over="ignore"):
        return np.ldexp(value, -power * e)


def objective(x, q) -> QuantizationObjective:
    """Mean squared error between x and the reconstruction of ``q``.

    The differences are squared on the unit scale of :func:`_to_unit`, so
    the mse is inf only where the true value overflows.
    """
    x = as_float_vector(x)
    # A reconstruction past the float64 maximum misses x by at least an ulp
    # of that maximum (2^971), whose square overflows: the inf it gives here
    # is the true mse, so its overflow is no cause for a warning.
    with np.errstate(over="ignore"):
        recon = reconstruct(q)
        if recon.size != x.size:
            raise ValueError(f"length mismatch: {x.size} vs {recon.size}")
        diff, e = _to_unit(x - recon)
        diff *= diff
        return QuantizationObjective(mse=float(_from_unit(_mean(diff, 1.0), e, 2)))


def foldable_planes(x, levels) -> np.ndarray:
    """Planes obtained by folding: s_i = sign(x minus the partial sum of
    earlier planes).  Returns a (k, n) int8 array."""
    return _fold(as_float_vector(x), np.asarray(levels, dtype=np.float64))


def _fold(x: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """:func:`foldable_planes` of an ``x`` already validated."""
    planes = np.empty((levels.size, x.size), dtype=np.int8)
    residual = x
    for i, v in enumerate(levels):
        planes[i] = sign(residual)
        if i + 1 < levels.size:
            residual = residual - v * planes[i]
    return planes


def _mean(a: np.ndarray, top: float) -> float:
    """``np.mean`` of float64 entries of magnitude at most ``top``, bit for
    bit: numpy's mean is the pairwise sum ``np.add.reduce`` over the count.

    Where the sum could pass 2^1023 the entries are summed scaled by 2^-s,
    2^s >= 2n, and the mean is scaled back.  Power-of-two scaling commutes
    with rounding above the subnormal range, so wherever the plain sum is
    finite this is the same mean; entries pushed below that range vanish
    beside a sum this large.
    """
    n = a.size
    if top < 2.0**1023 / n:
        return float(np.add.reduce(a) / n)
    s = n.bit_length() + 1
    return math.ldexp(float(np.add.reduce(np.ldexp(a, -s)) / n), s)


def quantize_ls1(x) -> ScaledBinaryQuantization:
    """Least squares 1-bit quantization: v = mean |x|, s = sign(x)."""
    return _greedy(x, 1, "ls1")


def quantize_greedy(x, k: int) -> ScaledBinaryQuantization:
    """Greedy k-bit quantization by repeated 1-bit fits to the residual.

    Levels are reported in generation order.  Every prefix of the planes is
    foldable by construction, and k = 1 is ``quantize_ls1``.
    """
    return _greedy(x, k, "greedy")


def _greedy(x, k: int, method: str) -> ScaledBinaryQuantization:
    """The greedy fit of k planes, tagged ``method``."""
    k = operator.index(k)
    x = as_float_vector(x)
    if k < 1:
        raise ValueError("k must be at least 1")
    levels = np.empty(k, dtype=np.float64)
    planes = np.empty((k, x.size), dtype=np.int8)
    mags = np.abs(x)
    # No residual magnitude exceeds max |x| by more than rounding, which the
    # factor-2 margin of _mean absorbs.
    top = mags.max()
    residual = x
    for i in range(k):
        levels[i] = _mean(mags, top)
        planes[i] = sign(residual)
        if i + 1 < k:
            residual = residual - levels[i] * planes[i]
            np.abs(residual, out=mags)
    return ScaledBinaryQuantization(levels=levels, planes=planes, method=method)


# ---------------------------------------------------------------------------
# Two-means cut scan over sorted magnitudes
#
# Both two-plane fits are 1-D two-means problems on the sorted magnitudes
# a_0 <= ... <= a_{n-1}.  ls2 places a free centre on each of two groups
# (reconstruction magnitudes v1 - v2 and v1 + v2); ternary pins the lower
# centre at 0 (reconstruction magnitudes 0 and 2v).  An optimal 1-D two-means
# partition is contiguous in sorted order (Wang & Song 2011, Ckmeans.1d.dp),
# so the optimum is a cut t into a lower group a[:t] and an upper group a[t:]
# with per-group mean centres.  With prefix sums P_t and suffix sums S_t the
# squared error of cut t is sum(a^2) minus its gain
#
#     ls2:      P_t^2 / t + S_t^2 / (n - t)      (first term 0 when t = 0)
#     ternary:  S_t^2 / (n - t)
#
# so the optimum is an argmax of the gain over t.  A cut inside a run of
# equal magnitudes is never optimal (moving a tied element to the nearer
# centre strictly lowers the error), so every cut is scanned and those inside
# a run, where a[t-1] == a[t], get gain -inf.  The optimal cut is a Lloyd
# fixed point: its level, (m_lo + m_hi) / 2 for ls2 and m_hi / 2 for ternary,
# satisfies a[t-1] <= level < a[t].
#
# The screening gains carry rounding, so the argmax and its neighbouring
# run-boundary cuts are recomputed with numpy's pairwise mean over the sorted
# slices, and a cut is kept only when its level satisfies that condition in
# exact float arithmetic.  The sums are taken on the offsets
# (a - a_0) / (a_{n-1} - a_0) in [0, 1]: unscaled, the squared sums underflow
# for magnitudes near 1e-300, and because a shift leaves ls2's error
# unchanged, offsets let its screen resolve groups narrower than the
# rounding of the magnitudes themselves.  Ternary's suffix sums are mapped
# back to a / a_{n-1}, since its pinned centre is not shift invariant.
# Suffix sums use a reversed cumulative sum; the forward-difference form
# loses all precision for short upper groups.
#
# The kept candidates, at most seven, are ranked by their realized error.
# Each is first scored on its cut sums, sum(a^2) - 2c P + t c^2 - 2d S
# + (n - t) d^2 for centres c <= d, realized cut t, the sum P below the cut
# and the rest S, within a rounding bound (see _best_levels).  Only the
# candidates whose brackets overlap the best one are scored again by a pass
# over the magnitudes, which decides exact ties.


def _split_mse(mags: np.ndarray, v1: float, v2: float) -> float:
    """Mean squared error of the reconstruction {v1 - v2, v1 + v2} applied
    to sorted magnitudes with the realized assignment (ties upward)."""
    cut = int(mags.searchsorted(v1, side="left"))
    low = mags[:cut] - (v1 - v2)
    low *= low
    high = mags[cut:] - (v1 + v2)
    high *= high
    return (float(low.sum()) + float(high.sum())) / mags.size


def _cut_sums(mags: np.ndarray):
    """The sums both screening gains share, over every cut t = 0..n-1 of
    the sorted, not identically zero magnitudes: the offsets, their suffix
    sums S_t and the upper group sizes n - t as floats."""
    n = mags.size
    lo, hi = mags[0], mags[-1]
    width = hi - lo
    offsets = mags - lo
    if width > 0:
        offsets /= width
    suffix = np.cumsum(offsets[::-1])[::-1]
    return offsets, suffix, np.arange(n, 0, -1, dtype=np.float64)


def _ls2_gain(offsets, suffix, upper):
    """ls2's screening gain P_t^2 / t + S_t^2 / (n - t) at every cut."""
    gain = suffix * suffix
    gain /= upper
    prefix = np.cumsum(offsets[:-1])
    prefix *= prefix
    prefix /= upper[:0:-1]  # t = 1, ..., n - 1
    gain[1:] += prefix
    return gain


def _ternary_gain(mags, suffix, upper):
    """Ternary's screening gain at every cut, its suffix sums mapped back
    from the offsets to a / a_{n-1}."""
    lo, hi = mags[0], mags[-1]
    gain = upper * (lo / hi)
    gain += ((hi - lo) / hi) * suffix
    gain *= gain
    gain /= upper
    return gain


def _threshold(m_lo, m_hi):
    """v1 = (m_lo + m_hi) / 2, the first of :func:`_two_bit_levels`.

    A sum past the float64 maximum needs both means at least 2^970, where
    halving is exact, so there the halves are added instead: the same
    rounded half-sum, without the overflow.  Arrays come from the unit
    scale of :func:`_to_unit`, so only a scalar sum can overflow.
    """
    if isinstance(m_hi, float) and math.isinf(m_lo + m_hi):
        return 0.5 * m_lo + 0.5 * m_hi
    return 0.5 * (m_lo + m_hi)


def _two_bit_levels(m_lo, m_hi):
    """The two-bit levels ``(v1, v2)`` that reconstruct group means m_lo, m_hi."""
    return _threshold(m_lo, m_hi), 0.5 * (m_hi - m_lo)


def _is_fixed_point(below, level, above):
    """The test a[t-1] <= level < a[t] of cut t of the sorted magnitudes a,
    elementwise; pass ``below`` = 0 at t = 0, which no level fails."""
    return (below <= level) & (level < above)


def _fixed_points(mags: np.ndarray, gain, in_runs, with_lower: bool):
    """Exactly self-consistent ``(v1, v2)`` levels among the run-boundary
    cut with the largest screening gain and its neighbouring boundary cuts.
    ``in_runs`` masks the cuts t = 1..n-1 inside a run of equal magnitudes,
    a[t-1] == a[t]; their gains are overwritten with -inf."""
    gain[1:][in_runs] = -np.inf
    best = int(gain.argmax())
    cuts = [best]
    if best > 0:
        cuts.insert(0, int(mags.searchsorted(mags[best - 1], side="left")))
    after = int(mags.searchsorted(mags[best], side="right"))
    if after < mags.size:
        cuts.append(after)
    accepted = []
    for ti in cuts:
        m_lo = _mean(mags[:ti], mags[-1]) if with_lower and ti > 0 else 0.0
        m_hi = _mean(mags[ti:], mags[-1])
        v1, v2 = _two_bit_levels(m_lo, m_hi)
        # Rounded slice means of a cluster a few ulps wide can give v2 < 0.
        if _is_fixed_point(mags[ti - 1] if ti else 0.0, v1, mags[ti]) and v2 >= 0:
            accepted.append((v1, v2))
    return accepted


def _best_levels(mags: np.ndarray, candidates) -> tuple[float, float]:
    """The candidate with the smallest realized error; ties to smaller v1.

    Errors are scored on the unit scale of :func:`_to_unit`, to which
    ``mags`` is scaled in place.  Each candidate is first scored on the
    cut sums, and :func:`_split_mse` runs only on those whose bracket
    overlaps the best one, so the choice is that of
    ``min(candidates, key=(_split_mse, v1))``.

    The bracket.  On the unit scale, with u = 2^-53, a candidate's realized
    cut t and centres c = v1 - v2 <= d = v1 + v2 (as rounded), the exact
    error E = sum_{i<t} (a_i - c)^2 + sum_{i>=t} (a_i - d)^2 is

        Q - 2c P + t c^2 - 2d S + (n - t) d^2,

    with Q = sum a^2, P the prefix sum up to t and S = A - P the rest of
    A = sum a.  M = Q + 2d A + n d^2 bounds E and every term.  A float
    sum of k nonnegative terms, in any order, is within (k - 1) u of its
    value up to O(u^2) (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2002, section 4.2), so Q, P and A are within n u of theirs
    and S within 3 n u A; with c <= d and 8 d A <= 4 M, the estimate from
    them, evaluated in eight more roundings, is within 5 (n + 8) u M of E.
    ``_split_mse`` rounds each residual and square and sums them, and n
    times its result is within (n + 4) u M of E.  A square below the
    normal range may lose up to 2^-1074 more.  So both lie within

        B = 8 (n + 8) u M + 8 n 2^-1074

    of the estimate, with room for the rounding of B and of the bracket
    ends.  A candidate whose estimate - B exceeds the smallest estimate + B
    has a strictly larger ``_split_mse`` than the candidate attaining it,
    so it can neither win nor tie.
    """
    scaled, e = _to_unit(mags, mags[-1])
    n = scaled.size
    total = float(np.add.reduce(scaled))
    squares = float(scaled @ scaled)
    brackets = []
    for v1, v2 in candidates:
        v1, v2 = math.ldexp(v1, e), math.ldexp(v2, e)
        c, d = v1 - v2, v1 + v2
        t = int(scaled.searchsorted(v1, side="left"))
        below = float(np.add.reduce(scaled[:t]))
        above = total - below
        estimate = squares - 2.0 * c * below + t * c * c - 2.0 * d * above + (n - t) * d * d
        bound = 8 * (n + 8) * 2.0**-53 * (squares + 2.0 * d * total + n * d * d)
        bound += 8 * n * 2.0**-1074
        brackets.append((estimate - bound, estimate + bound))
    ceiling = min(upper for _, upper in brackets)
    close = [cand for cand, (lower, _) in zip(candidates, brackets) if lower <= ceiling]
    if len(close) == 1:
        return close[0]
    return min(
        close,
        key=lambda c: (_split_mse(scaled, math.ldexp(c[0], e), math.ldexp(c[1], e)), c[0]),
    )


def _candidates(mags: np.ndarray, method: str):
    """The ls2 or ternary candidate levels of sorted, not identically zero
    magnitudes.  Ternary's are the exact fixed points of its cut scan; ls2
    lists its own fixed points, the 1-bit fit and the ternary fixed points,
    in that order because ties keep the first."""
    offsets, suffix, upper = _cut_sums(mags)
    in_runs = mags[:-1] == mags[1:]
    candidates = _fixed_points(mags, _ternary_gain(mags, suffix, upper), in_runs, False)
    if method == "ls2":
        ls2 = _fixed_points(mags, _ls2_gain(offsets, suffix, upper), in_runs, True)
        candidates = ls2 + [(_mean(mags, mags[-1]), 0.0)] + candidates
    return candidates


def _two_plane_fit(x, method: str) -> ScaledBinaryQuantization:
    """The ls2 or ternary fit: the best of :func:`_candidates`.  The zero
    vector keeps zero levels and, as sign(0) = +1, all +1 planes."""
    x = as_float_vector(x)
    mags = np.abs(x)
    mags.sort()
    levels = np.zeros(2)
    if mags[-1] > 0.0:
        levels[:] = _best_levels(mags, _candidates(mags, method))
    return ScaledBinaryQuantization(levels=levels, planes=_fold(x, levels), method=method)


def quantize_ternary(x) -> ScaledBinaryQuantization:
    """Least squares ternary quantization onto {-2v, 0, +2v}.

    The optimum is the two-means cut of the sorted magnitudes with the lower
    centre pinned at 0, so v is half the upper group's mean.  The returned
    level satisfies v = mean(magnitudes strictly above v) / 2 exactly, with
    the mean taken as a numpy reduction over the ascending sorted magnitude
    slice.

    On subnormal data the exact level may not be a float64: for ``[5e-324]``
    v = 2**-1075 lies halfway between the floats 0 and 5e-324, which
    reconstruct x with the same exact error |x|, so level 0 is optimal.
    """
    return _two_plane_fit(x, "ternary")


def quantize_ls2(x) -> ScaledBinaryQuantization:
    """Globally optimal foldable 2-bit quantization.

    A foldable pair reconstructs magnitudes v1 - v2 and v1 + v2 split at
    v1, so the optimum is the two-means cut of the sorted magnitudes, with
    v1 and v2 the half-sum and half-difference of the group means.  The
    1-bit fit (v2 = 0) and the ternary fit (v1 = v2) compete as well: they
    never have a smaller error, but they can tie with it, and ties go to
    the smaller v1.
    """
    return _two_plane_fit(x, "ls2")


# ---------------------------------------------------------------------------
# Lloyd reference quantizer


_LLOYD_MAX_ITERS = 500


def quantize_lloyd(x, k: int) -> LloydQuantizer:
    """Fit a 2^k-codeword scalar quantizer by alternating nearest-codeword
    assignment and codeword recentering.

    The codebook starts at the evenly spaced sample quantiles
    (i + 0.5) / 2^k, read off the sorted data, falling back to an evenly
    spaced ramp over the data range when those are not strictly increasing;
    for constant data the ramp runs between the value and 0 (from 0 to 1 for
    zero data), which keeps every codeword finite.  Iteration stops at an exact fixed point,
    when recentering returns the codebook bit for bit; a fit still moving
    after 500 steps has ``converged=False``.

    The data is sorted once, so every cell is a contiguous slice found by
    one ``searchsorted`` of the thresholds, and the cell means are one
    ``np.add.reduceat`` over the slices divided by their counts.  The
    result depends on the values of x only, not on their order.

    A codeword that loses all its members is reseeded at the datum farthest
    from its cell's new codeword, unless that distance is zero.  Distances
    are compared exactly, ties go to the smaller datum, and each datum
    seeds at most one codeword per step.  ``reseeds`` counts the reseeded
    codewords over the whole fit.

    The fit runs on the unit scale of :func:`_to_unit` and maps the
    codebook and thresholds back, so it is exactly equivariant under
    power-of-two scaling of x up to the float64 maximum.
    """
    k = operator.index(k)
    x = as_float_vector(x)
    if not 1 <= k <= 16:
        raise ValueError("k must be between 1 and 16")
    x, e = _to_unit(x.copy())
    n_codes = 2**k
    xs = np.sort(x)
    codebook = _sorted_quantiles(xs, (np.arange(n_codes) + 0.5) / n_codes)
    if np.any(np.diff(codebook) <= 0):
        lo, hi = float(xs[0]), float(xs[-1])
        if lo == hi:
            lo, hi = (min(lo, 0.0), max(hi, 0.0)) if lo else (0.0, 1.0)
        codebook = np.linspace(lo, hi, n_codes)

    reseeds = 0
    for iterations in range(1, _LLOYD_MAX_ITERS + 1):
        thresholds = 0.5 * (codebook[:-1] + codebook[1:])
        starts = np.concatenate(([0], np.searchsorted(xs, thresholds, side="left")))
        counts = np.diff(starts, append=xs.size)
        occupied = counts > 0
        starts, counts = starts[occupied], counts[occupied]
        means = np.add.reduceat(xs, starts) / counts
        new_codebook = codebook.copy()
        new_codebook[occupied] = means
        if not occupied.all():
            reseeds += _reseed(new_codebook, np.flatnonzero(~occupied), xs, starts, counts, means)
        new_codebook = np.sort(new_codebook)
        converged = np.array_equal(new_codebook, codebook)
        if converged:
            break
        codebook = new_codebook

    thresholds = 0.5 * (codebook[:-1] + codebook[1:])
    return LloydQuantizer(
        codebook=_from_unit(codebook, e),
        thresholds=_from_unit(thresholds, e),
        codes=np.searchsorted(thresholds, x, side="right"),
        iterations=iterations,
        converged=converged,
        reseeds=reseeds,
    )


def _sorted_quantiles(xs, q):
    """``np.quantile(xs, q)`` for ascending ``xs``, read off by index.

    This is numpy's default linear method (Hyndman & Fan type 7): the
    virtual index (n - 1) * q, and numpy's interpolation between its floor
    and the next datum, which steps down from the upper datum when the
    fraction is at least 0.5.  Only a signed zero may differ, as sorting
    and partitioning order -0.0 and 0.0 differently.
    """
    virtual = (xs.size - 1) * q
    below = np.floor(virtual)
    t = virtual - below
    below = below.astype(np.intp)
    a, b = xs[below], xs[np.minimum(below + 1, xs.size - 1)]
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    return out


def _reseed(codebook, empty, xs, starts, counts, means) -> int:
    """Set each ``codebook[j]`` for j in ``empty`` to the remaining datum
    farthest from its cell mean; return how many were set.

    Occupied cell i is the slice of ``counts[i]`` sorted data from
    ``xs[starts[i]]`` on, with mean ``means[i]``.  Its farthest datum is an
    end of the slice, since |x - m| is convex in x, so the candidates are
    the ends of the cells, and a used end moves one datum inward.  Ties go
    to the smaller datum.
    """
    cells = means.size
    ends = np.concatenate((starts, starts + counts - 1))
    m = np.concatenate((means, means))
    datum = xs[ends]
    dist, error = _exact_distance(datum, m)
    for done, j in enumerate(empty):
        top = dist.max()
        if top <= 0.0:
            return done
        tied = np.flatnonzero(dist == top)
        tied = tied[error[tied] == error[tied].max()]
        best = tied[np.argmin(datum[tied])]
        codebook[j] = datum[best]
        i = best % cells
        ends[best] += 1 if best < cells else -1
        if ends[i] > ends[i + cells]:
            dist[[i, i + cells]] = -np.inf
        else:
            datum[best] = xs[ends[best]]
            dist[best], error[best] = _exact_distance(datum[best], m[best])
    return len(empty)


def _exact_distance(x, m):
    """|x - m| as the pair (rounded value, rounding error), from Knuth's
    two-sum with the error's sign folded; the pairs order the exact
    distances lexicographically."""
    diff = x - m
    virtual = diff - x
    error = (x - (diff - virtual)) - (m + virtual)
    return np.abs(diff), np.where(diff < 0, -error, error)


def lloyd_to_scaled_binary(lq: LloydQuantizer) -> ScaledBinaryQuantization:
    """Project a fitted Lloyd quantizer onto k sign planes.

    Each codeword index is written in binary; bit j of the index yields
    plane j (bit 0 -> -1, bit 1 -> +1).  The k levels are then the least
    squares fit of the codeword values to these sign patterns, weighted by
    cluster occupancy.  Negative fitted levels are folded into their plane
    by flipping its signs, and levels are sorted nonincreasing.

    The result is generally not foldable and its error is at least the
    Lloyd error; it exists so Lloyd reference fits can travel through the
    packed scaled-binary pipeline.  The levels are solved for on the unit
    scale of :func:`_to_unit`, so they stay finite for codebooks near the
    float64 maximum.
    """
    n_codes = lq.codebook.size
    k = int(np.log2(n_codes))
    if 2**k != n_codes:
        raise ValueError("codebook size must be a power of two")
    bits = (2 * ((np.arange(n_codes)[:, None] >> np.arange(k)) & 1) - 1).astype(np.int8)
    weights = np.sqrt(np.bincount(lq.codes, minlength=n_codes).astype(np.float64))
    codebook, e = _to_unit(lq.codebook.copy())
    levels, *_ = np.linalg.lstsq(bits * weights[:, None], codebook * weights, rcond=None)
    levels = _from_unit(levels, e)
    planes = bits.T[:, lq.codes]
    negative = levels < 0
    levels = np.abs(levels)
    planes[negative] *= -1
    order = np.argsort(-levels, kind="stable")
    return ScaledBinaryQuantization(
        levels=levels[order], planes=planes[order], method="lloyd"
    )


# ---------------------------------------------------------------------------
# Method families
#
# Each family's fit as a call (x, k), and its fixed plane count, or None when
# the bit width is chosen per fit.  Container validation, method tokens,
# sweeps and the command line all read this one table.

_FAMILIES = {
    "ls1": (lambda x, k: quantize_ls1(x), 1),
    "ls2": (lambda x, k: quantize_ls2(x), 2),
    "ternary": (lambda x, k: quantize_ternary(x), 2),
    "greedy": (quantize_greedy, None),
    "lloyd": (quantize_lloyd, None),
}
