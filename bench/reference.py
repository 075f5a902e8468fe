"""Plain-numpy references for the benchmark's correctness gates.

Nothing here imports bitquant.  Each function restates a published
contract of the library (the SplitMix64 stream, the closed-form fits, the
two-means optimum of the two-plane solvers) directly in numpy, so the gates
compare the library against an independent computation.  References are
computed outside the timed region.
"""

from __future__ import annotations

import math

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = (1 << 64) - 1

# arccos(sqrt(2/pi)): the 1-bit angle of a large standard normal sample.
NORMAL_LS1_DEGREES = math.degrees(math.acos(math.sqrt(2.0 / math.pi)))


# ---------------------------------------------------------------------------
# Counter-based SplitMix64 stream and the synthetic distributions


def splitmix_words(seed: int, start: int, count: int) -> np.ndarray:
    """Words ``start .. start+count-1`` of the SplitMix64 stream of ``seed``."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = np.uint64(seed & _U64_MASK) + idx * _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _uniform(words: np.ndarray) -> np.ndarray:
    return ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def normal(seed: int, count: int) -> np.ndarray:
    """Box-Muller normals: the first half of the pair words feeds the
    radius, the second half the angle."""
    pairs = (count + 1) // 2
    u1 = _uniform(splitmix_words(seed, 0, pairs))
    u2 = _uniform(splitmix_words(seed, pairs, pairs))
    radius = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * np.pi) * u2
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(theta)
    out[1::2] = radius * np.sin(theta)
    return out[:count]


def laplace(seed: int, count: int, scale: float) -> np.ndarray:
    u = _uniform(splitmix_words(seed, 0, count))
    return -scale * np.where(u < 0.5, -1.0, 1.0) * np.log1p(-2.0 * np.abs(u - 0.5))


def lognormal(seed: int, count: int, mu: float, sigma: float) -> np.ndarray:
    """Lognormal magnitudes with signs from the words after the normals."""
    magnitudes = np.exp(mu + sigma * normal(seed, count))
    used = 2 * ((count + 1) // 2)
    top = splitmix_words(seed, used, count) >> np.uint64(63)
    return magnitudes * np.where(top == 0, 1.0, -1.0)


def synthesize(distribution: str, count: int, seed: int, params: tuple) -> np.ndarray:
    if distribution == "normal":
        return normal(seed, count)
    if distribution == "laplace":
        return laplace(seed, count, *params)
    if distribution == "lognormal":
        return lognormal(seed, count, *params)
    raise ValueError(f"no reference for {distribution!r}")


# ---------------------------------------------------------------------------
# Fits


def signs(x: np.ndarray) -> np.ndarray:
    """+-1 as float64, with sign(0) = +1."""
    return np.where(x < 0, -1.0, 1.0)


def fold(x: np.ndarray, levels) -> np.ndarray:
    """Reconstruction of ``x`` by folded planes: each plane is the sign of
    what the earlier planes left over."""
    recon = np.zeros_like(x)
    for v in levels:
        recon += v * signs(x - recon)
    return recon


def greedy(x: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Levels and reconstruction of k successive 1-bit fits to the running
    residual; k = 1 is the ls1 fit.  The rows of a matrix are fitted
    independently, levels then having shape (rows, k)."""
    levels = []
    recon = np.zeros_like(x)
    residual = x
    for _ in range(k):
        v = np.mean(np.abs(residual), axis=-1, keepdims=True)
        plane = v * signs(residual)
        levels.append(v)
        recon += plane
        residual = residual - plane
    return np.concatenate(levels, axis=-1), recon


def _best_cut(mags: np.ndarray, pinned_lower: bool) -> int:
    """Cut t of the ascending magnitudes minimizing the squared error of
    centring a[:t] on its mean (or on 0 when pinned) and a[t:] on its mean.

    Optimal 1-D two-means partitions are contiguous in sorted order, so
    scanning every cut finds the global optimum of the two-plane fits.
    """
    n = mags.size
    t = np.arange(n)
    total = float(np.sum(mags))
    prefix = np.concatenate(([0.0], np.cumsum(mags[:-1])))
    suffix = total - prefix
    upper = suffix * suffix / (n - t)
    if pinned_lower:
        return int(np.argmax(upper))
    lower = np.divide(prefix * prefix, t, out=np.zeros(n), where=t > 0)
    return int(np.argmax(lower + upper))


def ls2_levels(mags: np.ndarray) -> tuple[float, float]:
    """(v1, v2) of the optimal foldable two-plane fit of sorted magnitudes."""
    t = _best_cut(mags, pinned_lower=False)
    m_lo = float(np.mean(mags[:t])) if t > 0 else 0.0
    m_hi = float(np.mean(mags[t:]))
    if t == 0:
        return m_hi, 0.0
    return 0.5 * (m_lo + m_hi), 0.5 * (m_hi - m_lo)


def ternary_level(mags: np.ndarray) -> float:
    """v of the optimal {-2v, 0, 2v} fit of sorted magnitudes."""
    t = _best_cut(mags, pinned_lower=True)
    return 0.5 * float(np.mean(mags[t:]))


def ternary_fixed_point(mags: np.ndarray, v: float) -> float:
    """Half the mean of the magnitudes strictly above v, as the solver
    defines it; a published ternary level equals this exactly."""
    return 0.5 * float(np.mean(mags[np.searchsorted(mags, v, side="right"):]))


def condition_curve(mags: np.ndarray, grid: int):
    """Thresholds strictly between 0 and the largest magnitude, and the mean
    of the magnitudes at or below (NaN when none) and above each one."""
    v = np.linspace(0.0, float(mags[-1]), grid + 2)[1:-1]
    below = np.searchsorted(mags, v, side="right")
    prefix = np.concatenate(([0.0], np.cumsum(mags)))
    lower = np.full(v.size, np.nan)
    lower[below > 0] = prefix[below[below > 0]] / below[below > 0]
    upper = (prefix[-1] - prefix[below]) / (mags.size - below)
    return v, lower, upper


def lloyd_violation(x: np.ndarray, codebook: np.ndarray, codes: np.ndarray) -> float:
    """Largest distance of a codeword from the mean of its cell, relative
    to the largest codeword magnitude; 0 at an exact Lloyd fixed point."""
    counts = np.bincount(codes, minlength=codebook.size)
    sums = np.bincount(codes, weights=x, minlength=codebook.size)
    occupied = counts > 0
    gap = np.abs(codebook[occupied] - sums[occupied] / counts[occupied])
    return float(np.max(gap)) / max(float(np.max(np.abs(codebook))), 1e-300)


# ---------------------------------------------------------------------------
# Comparisons


def angle_degrees(x: np.ndarray, y: np.ndarray) -> float:
    cosine = float(np.dot(x, y)) / (float(np.linalg.norm(x)) * float(np.linalg.norm(y)))
    return math.degrees(math.acos(min(1.0, max(-1.0, cosine))))


def mse(x: np.ndarray, recon: np.ndarray) -> float:
    d = x - recon
    return float(np.mean(d * d))


def close(actual, expected, rel: float) -> bool:
    """Every entry within ``rel`` of the expected magnitude (at least 1e-300)."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if actual.shape != expected.shape:
        return False
    scale = np.maximum(np.abs(expected), 1e-300)
    return bool(np.all(np.abs(actual - expected) <= rel * scale))
