"""Rank-1 binary matrix quantization.

A matrix X is approximated as (sigma * u v^T) .* S where S is a matrix of
+-1 signs and sigma * u v^T is a nonnegative rank-1 scale field.  Taking
S = sign(X) reduces the problem to the best rank-1 approximation of the
magnitude matrix |X|, whose optimum is the dominant singular triple; the
Perron-Frobenius theorem guarantees that triple can be taken entrywise
nonnegative, so the scale field is valid.

The dominant triple is found by power iteration on the Gram operator
A^T A (applied as two matrix-vector products per step, never formed), with
the all-column-sum vector as the start; for a nonnegative matrix that start
has positive overlap with the dominant right singular vector, so the
iteration cannot stall on an orthogonal start.

``energy_profile`` reports how the squared Frobenius norm of |X| splits
across the leading singular directions, which is what makes a rank-1 scale
field a good or bad fit for a given matrix.  It needs singular values but
no vectors, so it takes them all from one dense symmetric eigensolve of the
smaller Gram matrix of |X| rather than from power iteration.
``channel_mean_rank1`` is the cheap per-row alternative (each row scaled by
its mean magnitude) expressed in the same factorization form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .tensor import as_float_matrix

_REL_SLACK = 1e-9


@dataclass(frozen=True)
class Rank1Factorization:
    """sigma, unit vectors u (m,) and v (n,), and the sign matrix (m, n).

    ``sigma`` is nonnegative, u and v are entrywise nonnegative unit
    vectors, and ``signs`` holds +-1 entries.
    """

    sigma: float
    u: np.ndarray
    v: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        u = np.ascontiguousarray(self.u, dtype=np.float64)
        v = np.ascontiguousarray(self.v, dtype=np.float64)
        signs = np.ascontiguousarray(self.signs, dtype=np.int8)
        if self.sigma < 0 or not np.isfinite(self.sigma):
            raise ValueError("sigma must be finite and nonnegative")
        if u.ndim != 1 or v.ndim != 1:
            raise ValueError("u and v must be vectors")
        if np.any(u < 0) or np.any(v < 0):
            raise ValueError("u and v must be entrywise nonnegative")
        for name, vec in (("u", u), ("v", v)):
            norm = float(np.linalg.norm(vec))
            if abs(norm - 1.0) > _REL_SLACK:
                raise ValueError(f"{name} must have unit norm, got {norm}")
        if signs.shape != (u.size, v.size):
            raise ValueError("signs shape must match the outer product of u and v")
        if not np.all(np.abs(signs) == 1):
            raise ValueError("sign entries must be +1 or -1")
        for arr in (u, v, signs):
            arr.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "signs", signs)

    @property
    def shape(self) -> tuple[int, int]:
        return (int(self.u.size), int(self.v.size))


@dataclass(frozen=True)
class EnergyProfile:
    """Squared-magnitude energy split across leading singular directions.

    ``singular_energies[i]`` is the energy captured by singular direction i
    of the magnitude matrix, ``total`` the full squared Frobenius norm,
    ``ratio_1`` the leading share in [0, 1], and ``remainder`` whatever the
    reported directions leave unexplained.
    """

    singular_energies: tuple
    total: float
    ratio_1: float
    remainder: float

    def __post_init__(self):
        energies = tuple(float(e) for e in self.singular_energies)
        if not energies:
            raise ValueError("at least one singular energy is required")
        slack = _REL_SLACK * max(1.0, self.total)
        if any(e < -slack for e in energies):
            raise ValueError("singular energies must be nonnegative")
        for a, b in zip(energies, energies[1:]):
            if b > a + slack:
                raise ValueError("singular energies must be nonincreasing")
        if not 0.0 <= self.ratio_1 <= 1.0:
            raise ValueError("ratio_1 must lie in [0, 1]")
        object.__setattr__(self, "singular_energies", energies)


def reconstruct_rank1(f: Rank1Factorization) -> np.ndarray:
    """Dense reconstruction (sigma * u v^T) .* signs."""
    return f.sigma * np.outer(f.u, f.v) * f.signs


def residual_fro2(x, f: Rank1Factorization) -> float:
    """Squared Frobenius norm of X minus the reconstruction of ``f``."""
    x = as_float_matrix(x)
    d = x - reconstruct_rank1(f)
    return float(np.sum(d * d))


def _degenerate(shape) -> tuple[float, np.ndarray, np.ndarray]:
    m, n = shape
    u = np.zeros(m)
    v = np.zeros(n)
    u[0] = 1.0
    v[0] = 1.0
    return 0.0, u, v


def rank1_binary(x, tol: float = 1e-12, max_iters: int = 10_000) -> Rank1Factorization:
    """Least squares rank-1 binary factorization of a matrix.

    Signs are sign(X) with sign(0) = +1; the scale field is the dominant
    singular triple of |X|, found by power iteration on the Gram operator.
    Convergence is declared when the Rayleigh quotient changes by less than
    ``tol`` relative to its value; running out of iterations raises
    :class:`ConvergenceError` with the best triple attached.
    """
    x = as_float_matrix(x)
    signs = np.where(x < 0, -1, 1).astype(np.int8)
    mags = np.abs(x)
    if not np.any(mags):
        sigma, u, v = _degenerate(x.shape)
        return Rank1Factorization(sigma=sigma, u=u, v=v, signs=signs)

    v = mags.sum(axis=0)
    v = v / np.linalg.norm(v)
    rayleigh = None
    for _ in range(max_iters):
        y = mags @ v
        lam = float(y @ y)
        if rayleigh is not None and abs(lam - rayleigh) <= tol * lam:
            rayleigh = lam
            break
        rayleigh = lam
        w = mags.T @ y
        v = w / np.linalg.norm(w)
    else:
        raise ConvergenceError(
            f"power iteration did not settle in {max_iters} iterations",
            partial=_build_triple(mags, v, signs),
        )
    return _build_triple(mags, v, signs)


def _build_triple(mags, v, signs) -> Rank1Factorization:
    y = mags @ v
    sigma = float(np.linalg.norm(y))
    if sigma == 0.0:
        sigma, u, v = _degenerate(mags.shape)
        return Rank1Factorization(sigma=sigma, u=u, v=v, signs=signs)
    u = y / sigma
    # Rounding can leave harmless -1e-17 entries in an otherwise nonnegative
    # eigenvector; clamp rather than fail validation.
    u = np.maximum(u, 0.0)
    v = np.maximum(v, 0.0)
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    return Rank1Factorization(sigma=sigma, u=u, v=v, signs=signs)


def channel_mean_rank1(x) -> Rank1Factorization:
    """Per-row mean-magnitude scaling expressed as a rank-1 factorization.

    Row i is scaled by mean |row i|; that scale column a and the constant
    column 1 form the rank-1 field a 1^T = sigma u v^T with sigma equal to
    the norm of a times sqrt(n).
    """
    x = as_float_matrix(x)
    signs = np.where(x < 0, -1, 1).astype(np.int8)
    m, n = x.shape
    a = np.mean(np.abs(x), axis=1)
    norm_a = float(np.linalg.norm(a))
    if norm_a == 0.0:
        sigma, u, v = _degenerate(x.shape)
        return Rank1Factorization(sigma=sigma, u=u, v=v, signs=signs)
    return Rank1Factorization(
        sigma=norm_a * np.sqrt(n),
        u=a / norm_a,
        v=np.full(n, 1.0 / np.sqrt(n)),
        signs=signs,
    )


def energy_profile(x, top_r: int) -> EnergyProfile:
    """Energy captured by the leading ``top_r`` singular directions of |X|.

    The energies are the squared singular values of |X|, computed as the
    eigenvalues of the smaller Gram matrix of |X| by one dense symmetric
    eigensolve, taken in descending order and clamped at 0 (rounding can
    leave eigenvalues past the numerical rank slightly negative).
    """
    x = as_float_matrix(x)
    m, n = x.shape
    if not 1 <= top_r <= min(m, n):
        raise ValueError(f"top_r must be in [1, {min(m, n)}]")
    mags = np.abs(x)
    total = float(np.sum(mags * mags))
    if total == 0.0:
        energies = (0.0,) * top_r
        return EnergyProfile(
            singular_energies=energies, total=0.0, ratio_1=0.0, remainder=0.0
        )
    gram = mags.T @ mags if n <= m else mags @ mags.T
    energies = np.maximum(np.linalg.eigvalsh(gram)[::-1][:top_r], 0.0)
    ratio = min(max(float(energies[0]) / total, 0.0), 1.0)
    return EnergyProfile(
        singular_energies=tuple(energies),
        total=total,
        ratio_1=ratio,
        remainder=total - float(np.sum(energies)),
    )
