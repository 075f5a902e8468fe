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
its mean magnitude): the same triple, taken along the uniform right vector.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .quantizers import _from_unit, _to_unit, sign
from .tensor import _Record, as_float_matrix

_REL_SLACK = 1e-9
_POWER_TOL = 1e-12
_POWER_MAX_ITERS = 10_000


@dataclass(frozen=True, eq=False)
class Rank1Factorization(_Record):
    """sigma, unit vectors u (m,) and v (n,), and the sign matrix (m, n).

    ``sigma`` is nonnegative, u and v are entrywise nonnegative unit
    vectors, and ``signs`` holds +-1 entries.
    """

    sigma: float
    u: np.ndarray
    v: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        u = self._own("u", np.float64)
        v = self._own("v", np.float64)
        signs = self._own("signs", np.int8)
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
    r = np.outer(f.u, f.v)
    r *= f.sigma
    r *= f.signs
    return r


def residual_fro2(x, f: Rank1Factorization) -> float:
    """Squared Frobenius norm of X minus the reconstruction of ``f``; X
    must have the factorization's shape."""
    x = as_float_matrix(x)
    if x.shape != f.shape:
        raise ValueError(f"x has shape {x.shape}, the factorization {f.shape}")
    # x - r and its square in the reconstruction's buffer.  x and r share
    # signs, so x - r is finite, and its square and sum overflow only where
    # the true residual does: that inf is the answer, not a fault.
    d = reconstruct_rank1(f)
    np.subtract(x, d, out=d)
    with np.errstate(over="ignore"):
        d *= d
        return float(np.sum(d))


def _unit_magnitudes(x):
    """X as a float matrix, and |X| on the unit scale of exponent e."""
    x = as_float_matrix(x)
    mags = np.abs(x)
    return (x, *_to_unit(mags, mags.max()))


def _triple(x, mags, v, e) -> Rank1Factorization:
    """The factorization of X along the nonnegative unit right vector ``v``,
    where ``mags`` is |X| on the unit scale of exponent e: u = |X| v
    normalized and sigma its norm.  A zero product, as for X = 0, gives
    sigma 0 and the first coordinate vectors; a sigma past the float64
    maximum raises ValueError."""
    signs = sign(x)
    y = mags @ v
    norm_y = float(np.linalg.norm(y))
    if norm_y == 0.0:
        u, v = np.zeros(mags.shape[0]), np.zeros(mags.shape[1])
        u[0] = v[0] = 1.0
        return Rank1Factorization(sigma=0.0, u=u, v=v, signs=signs)
    sigma = float(_from_unit(norm_y, e))
    if sigma == np.inf:
        raise ValueError("the leading singular value of |X| lies beyond the float64 range")
    # Built from nonnegative values only, u and v hold no -0.0 or negative
    # entry; renormalizing rounds them to unit norm.
    u = y / norm_y
    return Rank1Factorization(
        sigma=sigma,
        u=u / np.linalg.norm(u),
        v=v / np.linalg.norm(v),
        signs=signs,
    )


def rank1_binary(x) -> Rank1Factorization:
    """Least squares rank-1 binary factorization of a matrix.

    Signs are sign(X) with sign(0) = +1; the scale field is the dominant
    singular triple of |X|, found by power iteration on the Gram operator.
    Convergence is declared when the Rayleigh quotient changes by at most
    1e-12 relative to its value; 10,000 steps without that raise
    :class:`ConvergenceError` with the best triple attached.  The iteration
    runs on the unit scale of |X|, so the result is exactly equivariant
    under power-of-two scaling of X.
    """
    x, mags, e = _unit_magnitudes(x)
    v = mags.sum(axis=0)
    # X = 0 keeps v = 0, which settles at once to the degenerate triple.
    v = v / (np.linalg.norm(v) or 1.0)
    rayleigh = None
    for _ in range(_POWER_MAX_ITERS):
        y = mags @ v
        lam = float(y @ y)
        if rayleigh is not None and abs(lam - rayleigh) <= _POWER_TOL * lam:
            break
        rayleigh = lam
        w = mags.T @ y
        v = w / (np.linalg.norm(w) or 1.0)
    else:
        raise ConvergenceError(
            f"power iteration did not settle in {_POWER_MAX_ITERS} iterations",
            partial=_triple(x, mags, v, e),
        )
    return _triple(x, mags, v, e)


def channel_mean_rank1(x) -> Rank1Factorization:
    """Per-row mean-magnitude scaling expressed as a rank-1 factorization.

    Row i is scaled by mean |row i|, which is the triple along the uniform
    right vector v = 1/sqrt(n): u is the normalized row sums of |X| and
    sigma their norm over sqrt(n).
    """
    x, mags, e = _unit_magnitudes(x)
    n = mags.shape[1]
    return _triple(x, mags, np.full(n, 1.0 / np.sqrt(n)), e)


def energy_profile(x, top_r: int) -> EnergyProfile:
    """Energy captured by the leading ``top_r`` singular directions of |X|.

    The energies are the squared singular values of |X|, computed as the
    eigenvalues of the smaller Gram matrix of |X| by one dense symmetric
    eigensolve, taken in descending order and clamped at 0 (rounding can
    leave eigenvalues past the numerical rank slightly negative).  They are
    computed on the unit scale of |X|, as in :func:`rank1_binary`, and
    mapped back, so they underflow or overflow only where the true values do.
    """
    top_r = operator.index(top_r)
    _, mags, e = _unit_magnitudes(x)
    m, n = mags.shape
    if not 1 <= top_r <= min(m, n):
        raise ValueError(f"top_r must be in [1, {min(m, n)}]")
    total = float(np.sum(mags * mags))
    if total == 0.0:
        return EnergyProfile(
            singular_energies=(0.0,) * top_r, total=0.0, ratio_1=0.0, remainder=0.0
        )
    gram = mags.T @ mags if n <= m else mags @ mags.T
    energies = np.maximum(np.linalg.eigvalsh(gram)[::-1][:top_r], 0.0)
    return EnergyProfile(
        singular_energies=tuple(_from_unit(energies, e, 2)),
        total=float(_from_unit(total, e, 2)),
        ratio_1=min(max(float(energies[0]) / total, 0.0), 1.0),
        remainder=float(_from_unit(total - float(np.sum(energies)), e, 2)),
    )
