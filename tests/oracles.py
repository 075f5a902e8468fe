"""Independent reference implementations used to check the package.

Everything here is deliberately written along a different route than the
library code: synthetic draws come from whole-array formulas instead of
blocks of the stream, eigenvalues from a cyclic Jacobi sweep or a closed-form
3x3 solution instead of power iteration or LAPACK, plane dots from
pure-Python integer loops instead of popcounts, and their level-weighted
sum from a Python loop instead of a blocked array kernel, and the two-bit and
ternary bounds from a full cut enumeration or a level grid with direct
residuals instead of the screened cut scan, the condition curve's fixed
points from slice means at every cut instead of running sums, the best
K-level quantizer from dynamic programming over every partition instead of
alternating assignment and recentring, Lloyd's iteration from
per-element assignment and bincount sums instead of sorted slices, and the
two-plane cut scan from gathers at the run boundaries instead of masked
gains over every cut, and the two-plane candidate choice from every
candidate's residuals instead of a screen on the cut sums.
"""

from __future__ import annotations

import math

import numpy as np


def splitmix64_reference(seed: int, count: int) -> list[int]:
    """Sequential SplitMix64 in plain Python integers."""
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def splitmix64_words(seed: int, start: int, count: int) -> np.ndarray:
    """Stream words start .. start+count-1 of SplitMix64, as one whole-array
    expression over the counters."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = np.uint64(seed & ((1 << 64) - 1)) + idx * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def uniform_reference(seed: int, start: int, count: int) -> np.ndarray:
    """Uniforms in (0, 1) from the top 53 bits of the words from ``start``."""
    w = splitmix64_words(seed, start, count)
    return ((w >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def normal_reference(seed: int, start: int, count: int) -> np.ndarray:
    """Box-Muller normals from the words from ``start``: the first
    ceil(count/2) feed the radii, the next ceil(count/2) the angles."""
    pairs = (count + 1) // 2
    radius = np.sqrt(-2.0 * np.log(uniform_reference(seed, start, pairs)))
    theta = (2.0 * np.pi) * uniform_reference(seed, start + pairs, pairs)
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(theta)
    out[1::2] = radius * np.sin(theta)
    return out[:count]


def synthesis_reference(distribution: str, n: int, seed: int, params=()) -> np.ndarray:
    """``generate``'s draw restated as whole-array formulas, with no blocks.
    Lognormal signs come from the top bits of the n words after its
    normals."""
    if distribution == "normal":
        return normal_reference(seed, 0, n)
    if distribution == "uniform":
        a, b = params
        return a + (b - a) * uniform_reference(seed, 0, n)
    if distribution == "laplace":
        (scale,) = params
        u = uniform_reference(seed, 0, n)
        return -scale * np.where(u < 0.5, -1.0, 1.0) * np.log1p(-2.0 * np.abs(u - 0.5))
    mu, sigma = params
    top = splitmix64_words(seed, 2 * ((n + 1) // 2), n) >> np.uint64(63)
    return np.exp(mu + sigma * normal_reference(seed, 0, n)) * np.where(top == 0, 1.0, -1.0)


def brute_pm1_dot(a, b) -> int:
    """Integer inner product of two +-1 sequences."""
    assert len(a) == len(b)
    return sum(int(x) * int(y) for x, y in zip(a, b))


def row_major_level_sum(a_levels, b_levels, cross) -> float:
    """Sum of ``(a_levels[i] * b_levels[j]) * cross[i][j]`` over (i, j) in
    row-major order, from 0.0, in Python floats with the plane products as
    Python ints."""
    total = 0.0
    for i, la in enumerate(a_levels):
        for j, lb in enumerate(b_levels):
            total += (float(la) * float(lb)) * int(cross[i][j])
    return total


def jacobi_eigh(matrix, sweeps: int = 60, tol: float = 1e-14):
    """Eigenvalues (descending) and eigenvectors of a symmetric matrix by
    cyclic Jacobi rotations."""
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    assert a.shape == (n, n)
    v = np.eye(n)
    scale = max(1.0, float(np.max(np.abs(a))))
    for _ in range(sweeps):
        off = math.sqrt(float(np.sum(np.tril(a, -1) ** 2)))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if theta == 0.0:
                    t = 1.0
                else:
                    t = math.copysign(1.0, theta) / (
                        abs(theta) + math.sqrt(theta * theta + 1.0)
                    )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    eigenvalues = np.diag(a).copy()
    order = np.argsort(eigenvalues)[::-1]
    return eigenvalues[order], v[:, order]


def sym3_top_eigenvalue(matrix) -> float:
    """Largest eigenvalue of a symmetric 3x3 matrix, in closed form."""
    a = np.asarray(matrix, dtype=np.float64)
    p1 = a[0, 1] ** 2 + a[0, 2] ** 2 + a[1, 2] ** 2
    q = float(np.trace(a)) / 3.0
    if p1 == 0.0:
        return float(np.max(np.diag(a)))
    p2 = (a[0, 0] - q) ** 2 + (a[1, 1] - q) ** 2 + (a[2, 2] - q) ** 2 + 2.0 * p1
    p = math.sqrt(p2 / 6.0)
    b = (a - q * np.eye(3)) / p
    det_b = (
        b[0, 0] * (b[1, 1] * b[2, 2] - b[1, 2] * b[2, 1])
        - b[0, 1] * (b[1, 0] * b[2, 2] - b[1, 2] * b[2, 0])
        + b[0, 2] * (b[1, 0] * b[2, 1] - b[1, 1] * b[2, 0])
    )
    r = min(1.0, max(-1.0, det_b / 2.0))
    phi = math.acos(r) / 3.0
    return q + 2.0 * p * math.cos(phi)


def exhaustive_two_bit_mse(x) -> float:
    """Smallest mean squared error over every sorted-magnitude cut with
    per-cut optimal (group mean) levels; a lower bound on any realizable
    two-plane foldable quantization."""
    mags = np.sort(np.abs(np.asarray(x, dtype=np.float64)))
    n = mags.size
    best = math.inf
    for t in range(n):
        m_lo = float(np.mean(mags[:t])) if t > 0 else 0.0
        m_hi = float(np.mean(mags[t:]))
        low = mags[:t] - m_lo
        high = mags[t:] - m_hi
        sse = float(low @ low) + float(high @ high)
        best = min(best, sse / n)
    return best


def fixed_point_cuts(x) -> list[int]:
    """Every cut t of the sorted magnitudes a whose two-bit level, half the
    sum of the slice means of a[:t] (0 when empty) and a[t:], reproduces
    itself: a[t-1] <= level < a[t]."""
    mags = np.sort(np.abs(np.asarray(x, dtype=np.float64)))
    cuts = []
    for t in range(mags.size):
        m_lo = float(np.mean(mags[:t])) if t > 0 else 0.0
        level = 0.5 * (m_lo + float(np.mean(mags[t:])))
        if (t == 0 or mags[t - 1] <= level) and level < mags[t]:
            cuts.append(t)
    return cuts


def ternary_best_on_grid(x, grid_points) -> float:
    """Smallest realized ternary MSE over a grid of candidate levels.

    For level v the realized reconstruction sends |x| >= v to 2v (ties up)
    and the rest to 0.  Each level is scored from its direct residuals, so
    the rounding scales with the error rather than with the mean square of
    x.
    """
    mags = np.sort(np.abs(np.asarray(x, dtype=np.float64)))
    v = np.asarray(grid_points, dtype=np.float64)[:, None]
    residuals = np.where(mags >= v, mags - 2.0 * v, mags)
    return float(np.min(np.sum(residuals * residuals, axis=1))) / mags.size


def optimal_k_level_mse(x, levels: int) -> float:
    """Smallest mean squared error of any quantizer of x onto at most
    ``levels`` values, the O(levels * n^2) dynamic program of Ckmeans.1d.dp
    (Wang & Song 2011); meant for n up to a few hundred.

    An optimal quantizer partitions the sorted data into contiguous groups
    and sends each to its mean.  cost[j, i] is the squared error of the
    group x[j..i] about its mean, from prefix sums of the data shifted by
    its mean, and best[i] the least error of x[:i+1] in the groups used so
    far; the chosen partition is scored again from its slice residuals.
    """
    xs = np.sort(np.asarray(x, dtype=np.float64))
    n = xs.size
    shifted = xs - np.mean(xs)
    s1 = np.concatenate(([0.0], np.cumsum(shifted)))
    s2 = np.concatenate(([0.0], np.cumsum(shifted * shifted)))
    j, i = np.triu_indices(n)
    count = i - j + 1
    total = s1[i + 1] - s1[j]
    cost = np.full((n, n), np.inf)
    cost[j, i] = np.maximum(s2[i + 1] - s2[j] - total * total / count, 0.0)
    best = cost[0].copy()
    starts = [np.zeros(n, dtype=np.int64)]
    for _ in range(1, min(levels, n)):
        # Group x[j..i] closes a partition of x[:j] into one group fewer.
        options = np.concatenate(([np.inf], best[:-1]))[:, None] + cost
        starts.append(np.argmin(options, axis=0))
        best = np.min(options, axis=0)
    end, sse = n, 0.0
    for start_of in reversed(starts):
        start = int(start_of[end - 1])
        group = xs[start:end]
        sse += float(np.sum((group - np.mean(group)) ** 2))
        end = start
    return sse / n


def lloyd_reference(x, k: int):
    """Lloyd's iteration with the start and stopping rule of
    ``quantize_lloyd``, run element by element: each step assigns every x in
    input order, takes the cell means from ``bincount`` sums, and reseeds an
    empty codeword by an argmax over all elements, ties to the smaller
    datum.  Returns (codebook, codes, iterations, converged).
    """
    x = np.asarray(x, dtype=np.float64)
    n_codes = 2**k
    codebook = np.quantile(x, (np.arange(n_codes) + 0.5) / n_codes)
    if np.any(np.diff(codebook) <= 0):
        lo, hi = float(np.min(x)), float(np.max(x))
        if lo == hi:
            lo, hi = (min(lo, 0.0), max(hi, 0.0)) if lo else (0.0, 1.0)
        codebook = np.linspace(lo, hi, n_codes)
    for iterations in range(1, 501):
        codes = np.searchsorted(0.5 * (codebook[:-1] + codebook[1:]), x, side="right")
        counts = np.bincount(codes, minlength=n_codes)
        sums = np.bincount(codes, weights=x, minlength=n_codes)
        new = codebook.copy()
        occupied = counts > 0
        new[occupied] = sums[occupied] / counts[occupied]
        errors = np.abs(x - new[codes])
        for empty in np.flatnonzero(~occupied):
            worst = np.lexsort((x, -errors))[0]
            if errors[worst] == 0.0:
                break
            new[empty] = x[worst]
            errors[worst] = 0.0
        new = np.sort(new)
        if np.array_equal(new, codebook):
            return codebook, codes, iterations, True
        codebook = new
    codes = np.searchsorted(0.5 * (codebook[:-1] + codebook[1:]), x, side="right")
    return codebook, codes, iterations, False


def run_boundary_two_plane_fit(x, method: str):
    """(levels, planes) of ``quantize_ls2`` or ``quantize_ternary`` from a
    cut scan over the run boundaries of the sorted magnitudes only.

    The boundary cuts come from ``np.nonzero`` and every sum is gathered at
    them; the exact slice-mean recompute covers the argmax and its
    neighbours in that cut list.  :func:`split_mse_selection` picks among
    the candidates, and the planes are folded with ``np.where`` signs.
    """
    x = np.asarray(x, dtype=np.float64)
    mags = np.sort(np.abs(x))
    n = mags.size
    if mags[-1] == 0.0:
        return np.zeros(2), np.ones((2, n), dtype=np.int8)
    lo, hi = mags[0], mags[-1]
    cuts = np.concatenate(([0], np.nonzero(mags[:-1] < mags[1:])[0] + 1))
    width = hi - lo
    offsets = (mags - lo) / width if width > 0 else np.zeros(n)
    prefix = np.concatenate(([0.0], np.cumsum(offsets[:-1])))[cuts]
    suffix = np.cumsum(offsets[::-1])[::-1][cuts]
    ls2 = np.divide(prefix * prefix, cuts, out=np.zeros(cuts.size), where=cuts > 0)
    ls2 += suffix * suffix / (n - cuts)
    upper = (n - cuts) * (lo / hi) + (width / hi) * suffix
    ternary = upper * upper / (n - cuts)

    def fixed_points(gain, with_lower):
        best = int(np.argmax(gain))
        accepted = []
        for ti in cuts[max(best - 1, 0) : best + 2]:
            m_lo = float(np.mean(mags[:ti])) if ti > 0 else 0.0
            m_hi = float(np.mean(mags[ti:]))
            if with_lower:
                v1, v2 = 0.5 * (m_lo + m_hi), 0.5 * (m_hi - m_lo)
            else:
                v1 = v2 = 0.5 * m_hi
            if (ti == 0 or mags[ti - 1] <= v1) and v1 < mags[ti] and v2 >= 0:
                accepted.append((v1, v2))
        return accepted

    if method == "ls2":
        candidates = (
            fixed_points(ls2, True) + [(float(np.mean(mags)), 0.0)] + fixed_points(ternary, False)
        )
    else:
        candidates = fixed_points(ternary, False)
    levels = np.array(split_mse_selection(mags, candidates))
    planes = np.empty((2, n), dtype=np.int8)
    residual = x
    for i, v in enumerate(levels):
        planes[i] = np.where(residual < 0, -1, 1).astype(np.int8)
        residual = residual - v * planes[i].astype(np.float64)
    return levels, planes


def split_mse_selection(mags, candidates):
    """The (v1, v2) among ``candidates`` with the smallest realized error on
    the sorted magnitudes ``mags``, ties to the smaller v1 and then to the
    first listed.

    Every candidate is scored from its residuals on the magnitudes scaled
    by 2^e, max in [0.5, 1): the cut at v1 (ties upward), the lower group
    about v1 - v2 and the upper group about v1 + v2.
    """
    mags = np.asarray(mags, dtype=np.float64)
    e = -math.frexp(float(mags[-1]))[1]
    scaled = np.ldexp(mags, e)

    def realized_mse(c):
        v1, v2 = math.ldexp(c[0], e), math.ldexp(c[1], e)
        cut = int(np.searchsorted(scaled, v1, side="left"))
        low = scaled[:cut] - (v1 - v2)
        high = scaled[cut:] - (v1 + v2)
        return (float(np.sum(low * low)) + float(np.sum(high * high))) / scaled.size

    return min(candidates, key=lambda c: (realized_mse(c), c[0]))
