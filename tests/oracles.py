"""Independent reference implementations used to check the package.

Everything here is deliberately written along a different route than the
library code: eigenvalues come from a cyclic Jacobi sweep or a closed-form
3x3 solution instead of power iteration or LAPACK, plane dots from
pure-Python integer loops instead of popcounts, and the two-bit bound from
a full cut enumeration with direct residuals instead of the screened cut
scan.
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


def brute_pm1_dot(a, b) -> int:
    """Integer inner product of two +-1 sequences."""
    assert len(a) == len(b)
    return sum(int(x) * int(y) for x, y in zip(a, b))


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


def ternary_best_on_grid(x, grid_points) -> float:
    """Smallest realized ternary MSE over a grid of candidate levels.

    For level v the realized reconstruction sends |x| >= v to 2v (ties up)
    and the rest to 0.
    """
    mags = np.sort(np.abs(np.asarray(x, dtype=np.float64)))
    n = mags.size
    sq = mags * mags
    sq_prefix = np.concatenate(([0.0], np.cumsum(sq)))
    sq_suffix = np.concatenate((np.cumsum(sq[::-1])[::-1], [0.0]))
    m_suffix = np.concatenate((np.cumsum(mags[::-1])[::-1], [0.0]))
    v = np.asarray(grid_points, dtype=np.float64)
    idx = np.searchsorted(mags, v, side="left")
    count_hi = n - idx
    sse = sq_prefix[idx] + sq_suffix[idx] - 4.0 * v * m_suffix[idx] + 4.0 * v * v * count_hi
    return float(np.min(sse)) / n
