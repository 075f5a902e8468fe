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
  residual.  For k = 1 it coincides bit-for-bit with ``quantize_ls1``.
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

from dataclasses import dataclass

import numpy as np

from .tensor import as_float_vector


def sign(values):
    """Sign with sign(0) = +1; +-1 as int8, matching the input shape."""
    arr = np.asarray(values)
    out = np.where(arr < 0, -1, 1).astype(np.int8)
    if arr.ndim == 0:
        return int(out[()])
    return out


@dataclass(frozen=True)
class ScaledBinaryQuantization:
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
        levels = np.ascontiguousarray(self.levels, dtype=np.float64)
        planes = np.asarray(self.planes)
        if levels.ndim != 1 or levels.size < 1:
            raise ValueError("levels must be a nonempty 1-D array")
        if not np.all(np.isfinite(levels)) or np.any(levels < 0):
            raise ValueError("levels must be finite and nonnegative")
        if planes.ndim != 2 or planes.shape[0] != levels.size or planes.shape[1] < 1:
            raise ValueError("planes must have shape (len(levels), n)")
        # Checked before the int8 cast, which would truncate 1.5 to 1.
        if not np.all(np.abs(planes) == 1):
            raise ValueError("plane entries must be +1 or -1")
        planes = np.ascontiguousarray(planes, dtype=np.int8)
        if self.method not in _FAMILIES:
            raise ValueError(f"unknown method {self.method!r}")
        # Greedy keeps its levels in generation order, which residual
        # fitting does not sort; every other family's are nonincreasing.
        if self.method != "greedy" and np.any(np.diff(levels) > 0):
            raise ValueError(f"{self.method} levels must be nonincreasing")
        if self.method == "ternary":
            if levels.size != 2 or levels[0] != levels[1]:
                raise ValueError("ternary requires two equal levels")
        levels.setflags(write=False)
        planes.setflags(write=False)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "planes", planes)

    @property
    def k(self) -> int:
        return int(self.levels.size)

    @property
    def n(self) -> int:
        return int(self.planes.shape[1])


@dataclass(frozen=True)
class LloydQuantizer:
    """A fitted 2^k-codeword scalar quantizer.

    ``codebook`` holds the codewords sorted ascending, ``thresholds`` the
    midpoints between adjacent codewords (assignment boundaries, ties going
    up), and ``codes`` the per-element codeword indices under the final
    codebook.
    """

    codebook: np.ndarray
    thresholds: np.ndarray
    codes: np.ndarray
    iterations: int
    converged: bool

    def __post_init__(self):
        codebook = np.ascontiguousarray(self.codebook, dtype=np.float64)
        thresholds = np.ascontiguousarray(self.thresholds, dtype=np.float64)
        codes = np.ascontiguousarray(self.codes, dtype=np.int64)
        if codebook.ndim != 1 or codebook.size < 2:
            raise ValueError("codebook must hold at least two codewords")
        if not np.all(np.isfinite(codebook)):
            raise ValueError("codebook must be finite")
        # Compared directly: np.diff overflows when the codebook spans more
        # than the float64 maximum.
        if np.any(codebook[1:] < codebook[:-1]):
            raise ValueError("codebook must be sorted ascending")
        if thresholds.shape != (codebook.size - 1,):
            raise ValueError("need one threshold between each codeword pair")
        if codes.ndim != 1 or codes.size < 1:
            raise ValueError("codes must be a nonempty 1-D array")
        if np.any(codes < 0) or np.any(codes >= codebook.size):
            raise ValueError("codes must index the codebook")
        for arr in (codebook, thresholds, codes):
            arr.setflags(write=False)
        object.__setattr__(self, "codebook", codebook)
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "codes", codes)

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
        top = np.max(np.abs(a))
    e = -int(np.frexp(top)[1])
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
    recon = reconstruct(q)
    if recon.size != x.size:
        raise ValueError(f"length mismatch: {x.size} vs {recon.size}")
    diff, e = _to_unit(x - recon)
    return QuantizationObjective(mse=float(_from_unit(np.mean(diff * diff), e, 2)))


def foldable_planes(x, levels) -> np.ndarray:
    """Planes obtained by folding: s_i = sign(x minus the partial sum of
    earlier planes).  Returns a (k, n) int8 array."""
    x = as_float_vector(x)
    levels = np.asarray(levels, dtype=np.float64)
    planes = np.empty((levels.size, x.size), dtype=np.int8)
    residual = x
    for i, v in enumerate(levels):
        planes[i] = sign(residual)
        residual = residual - v * planes[i].astype(np.float64)
    return planes


def is_foldable(x, q: ScaledBinaryQuantization) -> bool:
    """True when every plane of ``q`` equals the folded sign of ``x``."""
    x = as_float_vector(x)
    if q.n != x.size:
        raise ValueError(f"length mismatch: {x.size} vs {q.n}")
    return bool(np.array_equal(foldable_planes(x, q.levels), q.planes))


def _mean_abs(x: np.ndarray) -> float:
    """Mean magnitude; the shared primitive of the 1-bit and greedy fits."""
    return float(np.mean(np.abs(x)))


def quantize_ls1(x) -> ScaledBinaryQuantization:
    """Least squares 1-bit quantization: v = mean |x|, s = sign(x)."""
    x = as_float_vector(x)
    return ScaledBinaryQuantization(
        levels=np.array([_mean_abs(x)]),
        planes=sign(x)[None, :],
        method="ls1",
    )


def quantize_greedy(x, k: int) -> ScaledBinaryQuantization:
    """Greedy k-bit quantization by repeated 1-bit fits to the residual.

    Levels are reported in generation order.  Every prefix of the planes is
    foldable by construction, and k = 1 reproduces ``quantize_ls1`` exactly.
    """
    x = as_float_vector(x)
    if k < 1:
        raise ValueError("k must be at least 1")
    levels = np.empty(k, dtype=np.float64)
    planes = np.empty((k, x.size), dtype=np.int8)
    residual = x
    for i in range(k):
        levels[i] = _mean_abs(residual)
        planes[i] = sign(residual)
        residual = residual - levels[i] * planes[i].astype(np.float64)
    return ScaledBinaryQuantization(levels=levels, planes=planes, method="greedy")


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
# centre strictly lowers the error), so only run boundaries are scanned.  The
# optimal cut is a Lloyd fixed point: its level, (m_lo + m_hi) / 2 for ls2
# and m_hi / 2 for ternary, satisfies a[t-1] <= level < a[t].
#
# The screening gains carry rounding, so the argmax and its neighbouring
# boundary cuts are recomputed with numpy's pairwise mean over the sorted
# slices, and a cut is kept only when its level satisfies that condition in
# exact float arithmetic.  The sums are taken on the offsets
# (a - a_0) / (a_{n-1} - a_0) in [0, 1]: unscaled, the squared sums underflow
# for magnitudes near 1e-300, and because a shift leaves ls2's error
# unchanged, offsets let its screen resolve groups narrower than the
# rounding of the magnitudes themselves.  Ternary's suffix sums are mapped
# back to a / a_{n-1}, since its pinned centre is not shift invariant.
# Suffix sums use a reversed cumulative sum; the forward-difference form
# loses all precision for short upper groups.


def _split_mse(mags: np.ndarray, v1: float, v2: float) -> float:
    """Mean squared error of the reconstruction {v1 - v2, v1 + v2} applied
    to sorted magnitudes with the realized assignment (ties upward)."""
    cut = int(np.searchsorted(mags, v1, side="left"))
    low = mags[:cut] - (v1 - v2)
    high = mags[cut:] - (v1 + v2)
    return (float(np.sum(low * low)) + float(np.sum(high * high))) / mags.size


def _cut_gains(mags: np.ndarray):
    """Run-boundary cuts of the sorted, not identically zero magnitudes and
    the screening gains of ls2 and of ternary at each of them."""
    n = mags.size
    lo, hi = mags[0], mags[-1]
    cuts = np.concatenate(([0], np.nonzero(mags[:-1] < mags[1:])[0] + 1))
    width = hi - lo
    offsets = (mags - lo) / width if width > 0 else np.zeros(n)
    prefix = np.concatenate(([0.0], np.cumsum(offsets[:-1])))[cuts]
    suffix = np.cumsum(offsets[::-1])[::-1][cuts]
    ls2 = np.divide(prefix * prefix, cuts, out=np.zeros(cuts.size), where=cuts > 0)
    ls2 += suffix * suffix / (n - cuts)
    upper = (n - cuts) * (lo / hi) + (width / hi) * suffix
    return cuts, ls2, upper * upper / (n - cuts)


def _fixed_points(mags: np.ndarray, cuts, gain, with_lower: bool):
    """Exactly self-consistent ``(v1, v2)`` levels among the cut with the
    largest screening gain and its neighbouring cuts."""
    best = int(np.argmax(gain))
    accepted = []
    for ti in cuts[max(best - 1, 0) : best + 2]:
        m_lo = float(np.mean(mags[:ti])) if ti > 0 else 0.0
        m_hi = float(np.mean(mags[ti:]))
        if with_lower:
            v1, v2 = 0.5 * (m_lo + m_hi), 0.5 * (m_hi - m_lo)
        else:
            v1 = v2 = 0.5 * m_hi
        # Rounded slice means of a cluster a few ulps wide can give v2 < 0.
        if (ti == 0 or mags[ti - 1] <= v1) and v1 < mags[ti] and v2 >= 0:
            accepted.append((v1, v2))
    return accepted


def _best_levels(mags: np.ndarray, candidates) -> tuple[float, float]:
    """The candidate with the smallest realized error; ties to smaller v1.

    Errors are scored on the unit scale of :func:`_to_unit`.
    """
    scaled, e = _to_unit(mags.copy(), mags[-1])
    return min(candidates, key=lambda c: (_split_mse(scaled, *np.ldexp(c, e)), c[0]))


def _zero_quantization(n: int, k: int, method: str) -> ScaledBinaryQuantization:
    return ScaledBinaryQuantization(
        levels=np.zeros(k),
        planes=np.ones((k, n), dtype=np.int8),
        method=method,
    )


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
    x = as_float_vector(x)
    mags = np.sort(np.abs(x))
    if mags[-1] == 0.0:
        return _zero_quantization(x.size, 2, "ternary")
    cuts, _, gain = _cut_gains(mags)
    levels = np.array(_best_levels(mags, _fixed_points(mags, cuts, gain, False)))
    return ScaledBinaryQuantization(
        levels=levels, planes=foldable_planes(x, levels), method="ternary"
    )


def quantize_ls2(x) -> ScaledBinaryQuantization:
    """Globally optimal foldable 2-bit quantization.

    A foldable pair reconstructs magnitudes v1 - v2 and v1 + v2 split at
    v1, so the optimum is the two-means cut of the sorted magnitudes, with
    v1 and v2 the half-sum and half-difference of the group means.  The
    1-bit fit (v2 = 0) and the ternary fit (v1 = v2) compete as well: they
    never have a smaller error, but they can tie with it, and ties go to
    the smaller v1.
    """
    x = as_float_vector(x)
    mags = np.sort(np.abs(x))
    if mags[-1] == 0.0:
        return _zero_quantization(x.size, 2, "ls2")
    cuts, ls2_gain, ternary_gain = _cut_gains(mags)
    candidates = (
        _fixed_points(mags, cuts, ls2_gain, True)
        + [(float(np.mean(mags)), 0.0)]
        + _fixed_points(mags, cuts, ternary_gain, False)
    )
    levels = np.array(_best_levels(mags, candidates))
    return ScaledBinaryQuantization(
        levels=levels, planes=foldable_planes(x, levels), method="ls2"
    )


# ---------------------------------------------------------------------------
# Lloyd reference quantizer


_LLOYD_MAX_ITERS = 500


def quantize_lloyd(x, k: int) -> LloydQuantizer:
    """Fit a 2^k-codeword scalar quantizer by alternating nearest-codeword
    assignment and codeword recentering.

    The codebook starts at the evenly spaced sample quantiles
    (i + 0.5) / 2^k, falling back to an evenly spaced ramp over the data
    range when those are not strictly increasing; for constant data the
    ramp runs between the value and 0 (from 0 to 1 for zero data), which
    keeps every codeword finite.  A codeword that loses all its members is
    reseeded at the datum with the largest reconstruction error, unless
    that error is already zero.  Iteration stops at an exact fixed point,
    when recentering returns the codebook bit for bit; a fit still moving
    after 500 steps has ``converged=False``.

    The fit runs on the unit scale of :func:`_to_unit` and maps the
    codebook and thresholds back, so it is exactly equivariant under
    power-of-two scaling of x up to the float64 maximum.
    """
    x = as_float_vector(x)
    if not 1 <= k <= 16:
        raise ValueError("k must be between 1 and 16")
    x, e = _to_unit(x.copy())
    n_codes = 2**k
    codebook = np.quantile(x, (np.arange(n_codes) + 0.5) / n_codes)
    if np.any(np.diff(codebook) <= 0):
        lo = float(np.min(x))
        hi = float(np.max(x))
        if lo == hi:
            lo, hi = (min(lo, 0.0), max(hi, 0.0)) if lo else (0.0, 1.0)
        codebook = np.linspace(lo, hi, n_codes)

    for iterations in range(1, _LLOYD_MAX_ITERS + 1):
        thresholds = 0.5 * (codebook[:-1] + codebook[1:])
        codes = np.searchsorted(thresholds, x, side="right")
        counts = np.bincount(codes, minlength=n_codes)
        sums = np.bincount(codes, weights=x, minlength=n_codes)
        new_codebook = codebook.copy()
        occupied = counts > 0
        new_codebook[occupied] = sums[occupied] / counts[occupied]
        errors = None if occupied.all() else np.abs(x - new_codebook[codes])
        for empty in np.nonzero(~occupied)[0]:
            worst = int(np.argmax(errors))
            if errors[worst] == 0.0:
                break
            new_codebook[empty] = x[worst]
            errors[worst] = 0.0
        new_codebook = np.sort(new_codebook)
        converged = np.array_equal(new_codebook, codebook)
        if converged:
            break
        codebook = new_codebook
    else:
        thresholds = 0.5 * (codebook[:-1] + codebook[1:])
        codes = np.searchsorted(thresholds, x, side="right")
    return LloydQuantizer(
        codebook=_from_unit(codebook, e),
        thresholds=_from_unit(thresholds, e),
        codes=codes,
        iterations=iterations,
        converged=converged,
    )


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
    indices = np.arange(n_codes)
    digits = (indices[:, None] >> np.arange(k)[None, :]) & 1
    design = (2.0 * digits - 1.0).astype(np.float64)
    weights = np.sqrt(np.bincount(lq.codes, minlength=n_codes).astype(np.float64))
    codebook, e = _to_unit(lq.codebook.copy())
    levels, *_ = np.linalg.lstsq(design * weights[:, None], codebook * weights, rcond=None)
    levels = _from_unit(levels, e)
    planes = (2 * ((lq.codes[None, :] >> np.arange(k)[:, None]) & 1) - 1).astype(np.int8)
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
