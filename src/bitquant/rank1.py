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
field a good or bad fit for a given matrix.  It needs the leading
eigenvalues of the smaller Gram matrix G of |X| but no vectors.  Above a
size floor it takes them from a block Krylov subspace of G and certifies
them: Ritz values are lower bounds (Cauchy interlacing), one Cholesky
factorization proves that G has no eigenvalue above a threshold mu on the
complement of the Ritz vectors, and the residual then bounds each error
quadratically (Li and Li 2005).  Below the floor, or when the certificate
cannot be given, it runs one dense symmetric eigensolve of G.
``channel_mean_rank1`` is the cheap per-row alternative (each row scaled by
its mean magnitude): the same triple, taken along the uniform right vector.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConvergenceError
from .quantizers import _from_unit, _to_unit, sign
from .tensor import _Record, as_float_matrix

_REL_SLACK = 1e-9
_POWER_TOL = 1e-12
_POWER_MAX_ITERS = 10_000

# The Krylov path of energy_profile: the smallest Gram side it runs on, in
# columns of its block (a Krylov solve that stalls after two blocks then
# costs at most about 5 % of the dense eigensolve), the columns it adds to
# the block beyond top_r, its block budget, its stop tolerance and the
# largest certified error it accepts, both relative to the leading energy.
_KRYLOV_FLOOR = 50
_KRYLOV_EXTRA = 8
_KRYLOV_BLOCKS = 5
_KRYLOV_TOL = 2.5e-13
_KRYLOV_BOUND = 1e-12


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
class EnergySolve:
    """How :func:`energy_profile` found its energies.

    ``path`` is ``"krylov"`` or ``"dense"``.  ``reason`` says why the dense
    path ran: ``"floor"`` (the Gram side is below the size floor),
    ``"stall"`` (the residual could not reach the stop test within the
    block budget at its rate so far), ``"budget"`` (the budget ran out),
    ``"bound"`` (the certified bound exceeds 1e-12 of the leading energy)
    or ``"refused"`` (the Cholesky certificate failed); it is None on the
    Krylov path.  ``dimension`` is the Krylov subspace dimension reached,
    0 if none was built, and ``bound`` the certified bound on how far each
    reported energy lies below the true one, in the energies' units (None
    on the dense path).
    """

    path: str
    reason: str | None = None
    dimension: int = 0
    bound: float | None = None


@dataclass(frozen=True)
class EnergyProfile:
    """Squared-magnitude energy split across leading singular directions.

    ``singular_energies[i]`` is the energy captured by singular direction i
    of the magnitude matrix, ``total`` the full squared Frobenius norm,
    ``ratio_1`` the leading share in [0, 1], and ``remainder`` whatever the
    reported directions leave unexplained.  ``diagnostics`` is an
    :class:`EnergySolve` saying which eigensolver ran and why (None when
    not recorded, as for a zero matrix); it takes no part in equality or
    repr.
    """

    singular_energies: tuple
    total: float
    ratio_1: float
    remainder: float
    diagnostics: EnergySolve | None = field(default=None, compare=False, repr=False)

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


def _gram(mags) -> np.ndarray:
    """The smaller Gram matrix of ``mags``."""
    m, n = mags.shape
    return mags.T @ mags if n <= m else mags @ mags.T


def _krylov(gram, r):
    """The top ``r`` eigenvalues of ``gram`` from a block Krylov subspace,
    with the :class:`EnergySolve` that records their bound, and ``gram``
    overwritten with the certificate matrix M, which the caller must factor;
    or None and the reason the dense path must run, with ``gram`` intact.

    The start block is the r + 8 columns of G with the largest diagonal,
    ties to the lower index, so the solve draws no random numbers.  Each
    new block is orthogonalized against the basis twice (two projections,
    each followed by a QR step).  The Ritz values theta and vectors Y pass
    when ||R||^2 <= tol * theta_1 * gap and ||R|| < gap / 4, where
    R = G Y - Y Theta is the Ritz residual in the Frobenius norm and
    gap = theta_r - theta_{r+1}.

    With mu = theta_r - gap / 2 and c = 2 theta_1, a Cholesky factorization
    of M = mu I - G + c Y Y^T that completes proves M positive definite, so
    z^T G z < mu |z|^2 for every z orthogonal to Y.  Then G has exactly r
    eigenvalues above mu, and 0 <= lambda_i - theta_i <= ||R||^2 /
    (theta_r - mu) for i <= r: the lower bound is Cauchy interlacing, the
    upper one the quadratic residual bound of Li and Li (Linear Algebra
    Appl. 2005).  Rounding: a factorization that completes in floating
    point proves only M + dM positive semidefinite, with ||dM|| <= (N + 1)
    eps trace(M) (Higham, Accuracy and Stability of Numerical Algorithms,
    Thm. 10.3), and forming M rounds each entry by at most about (r + 3)
    eps (mu + theta_1 + c) / 2.  The margin delta = (N + 1) eps (trace(M) +
    N (mu + theta_1 + c)) covers both and is taken from theta_r - mu; the
    Ritz values themselves carry rounding of order N eps theta_1.
    """
    side = gram.shape[0]
    width = r + _KRYLOV_EXTRA
    basis = np.empty((side, _KRYLOV_BLOCKS * width))
    image = np.empty_like(basis)
    block = np.linalg.qr(gram[:, np.argsort(-np.diagonal(gram), kind="stable")[:width]])[0]
    prior = np.inf
    for step in range(1, _KRYLOV_BLOCKS + 1):
        k = step * width
        basis[:, k - width : k] = block
        image[:, k - width : k] = gram @ block
        q, w = basis[:, :k], image[:, :k]
        t = q.T @ w
        theta, s = np.linalg.eigh((t + t.T) / 2)
        theta, s = theta[::-1][: r + 1], s[:, ::-1][:, :r]
        y = q @ s
        residual = float(np.linalg.norm(w @ s - y * theta[:r]))
        gap = float(theta[r - 1] - theta[r])
        need = _KRYLOV_TOL * float(theta[0]) * gap
        if not need > 0.0:
            return None, EnergySolve("dense", "stall", k)
        progress = residual * residual / need
        if progress <= 1.0 and residual < gap / 4:
            break
        if step == _KRYLOV_BLOCKS:
            return None, EnergySolve("dense", "budget", k)
        # Even the rate of the last block, kept up, would not reach the
        # stop test within the budget.  A rate above 1 counts as 1, which
        # also keeps the power finite.
        if progress * min(progress / prior, 1.0) ** (_KRYLOV_BLOCKS - step) > 1.0:
            return None, EnergySolve("dense", "stall", k)
        prior = progress
        block = image[:, k - width : k].copy()
        for _ in range(2):
            block -= q @ (q.T @ block)
            block = np.linalg.qr(block)[0]
    top = float(theta[0])
    mu, c = float(theta[r - 1]) - gap / 2, 2.0 * top
    trace = side * mu - float(np.trace(gram)) + c * float(np.sum(y * y))
    margin = (side + 1) * np.finfo(np.float64).eps * (abs(trace) + side * (mu + top + c))
    bound = residual * residual / (gap / 2 - margin) if margin < gap / 4 else np.inf
    if not bound <= _KRYLOV_BOUND * top:
        return None, EnergySolve("dense", "bound", k)
    # M in G's own buffer, c Y Y^T added a row block at a time.
    np.negative(gram, out=gram)
    gram.flat[:: side + 1] += mu
    rows = 64
    for i in range(0, side, rows):
        gram[i : i + rows] += (c * y[i : i + rows]) @ y.T
    return np.maximum(theta[:r], 0.0), EnergySolve("krylov", None, k, bound)


def energy_profile(x, top_r: int) -> EnergyProfile:
    """Energy captured by the leading ``top_r`` singular directions of |X|.

    The energies are the squared singular values of |X|: the top ``top_r``
    eigenvalues of the smaller Gram matrix G of |X|, in descending order and
    clamped at 0 (rounding can leave eigenvalues past the numerical rank
    slightly negative).  When G's side is at least 50 (top_r + 8), 800
    for top_r = 8, they come from a block Krylov subspace of G of at most
    5 blocks of top_r + 8 columns, certified by one Cholesky factorization:
    each is a lower bound on the eigenvalue of G within
    ``diagnostics.bound``, at most 1e-12 of the leading energy (see
    :func:`_krylov`).  Otherwise, and whenever the Krylov solve stalls,
    runs out of blocks or is refused its certificate, one dense symmetric
    eigensolve of G gives them all; ``diagnostics`` records which path ran
    and why.  Either way the energies are computed on the unit scale of
    |X|, as in :func:`rank1_binary`, and mapped back, so they underflow or
    overflow only where the true values do.
    """
    top_r = operator.index(top_r)
    x, mags, e = _unit_magnitudes(x)
    m, n = mags.shape
    if not 1 <= top_r <= min(m, n):
        raise ValueError(f"top_r must be in [1, {min(m, n)}]")
    total = float(np.sum(mags * mags))
    if total == 0.0:
        return EnergyProfile(
            singular_energies=(0.0,) * top_r, total=0.0, ratio_1=0.0, remainder=0.0
        )
    gram = _gram(mags)
    side = gram.shape[0]
    if side < _KRYLOV_FLOOR * (top_r + _KRYLOV_EXTRA):
        energies, solve = None, EnergySolve("dense", "floor")
    else:
        energies, solve = _krylov(gram, top_r)
    # |X| is released only now, as one free block that the Cholesky factor
    # or the dense solve's copy of G can reuse.  Released before the Krylov
    # step, it would be split by that step's arrays, and the process would
    # hold about one more matrix at its peak.
    del mags
    if energies is not None:
        try:
            np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            energies, solve = None, EnergySolve("dense", "refused", solve.dimension)
    if solve.reason == "refused":
        # Outside the handler, whose traceback still holds M.
        del gram
        gram = _gram(_unit_magnitudes(x)[1])
    if energies is None:
        energies = np.maximum(np.linalg.eigvalsh(gram)[::-1][:top_r], 0.0)
    else:
        solve = replace(solve, bound=float(_from_unit(solve.bound, e, 2)))
    return EnergyProfile(
        singular_energies=tuple(_from_unit(energies, e, 2)),
        total=float(_from_unit(total, e, 2)),
        ratio_1=min(max(float(energies[0]) / total, 0.0), 1.0),
        remainder=float(_from_unit(total - float(np.sum(energies)), e, 2)),
        diagnostics=solve,
    )
