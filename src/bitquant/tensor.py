"""Tensor containers, synthetic data generation, and file formats.

Vectors and matrices are plain float64 numpy arrays validated through
:func:`as_float_vector` / :func:`as_float_matrix`: finite entries only,
at least one element per axis.

Two on-disk formats are supported:

* FQT: a little-endian binary format.  Header is the 4-byte magic ``FQT1``,
  the rank as a 32-bit unsigned integer, then one 64-bit unsigned integer
  per dimension.  The payload is the row-major element data as 32-bit
  floats.  Ranks 1 and 2 are accepted.
* CSV: comma-separated decimal text holding flat 1-D data only.  Values are
  written with %.17g so that a write/read cycle is value-exact for doubles.

Loading rejects non-finite payloads, malformed headers, and dimension
declarations that do not match the available bytes.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import (
    DimensionOverflowError,
    MalformedHeaderError,
    NonFiniteValueError,
)
from .rng import SplitMix64

_FQT_MAGIC = b"FQT1"
# Desk-scale sanity bound on element counts; anything above this is treated
# as a corrupt header rather than a plausible tensor.
_MAX_ELEMENTS = 1 << 40


class _Record:
    """Array ownership and value equality for the frozen dataclasses that
    hold arrays.

    Arrays and floats compare with ``np.array_equal(..., equal_nan=True)``,
    other fields with ``==``; ``compare=False`` fields are skipped.
    """

    def _own(self, name: str, dtype) -> np.ndarray:
        """Store field ``name`` as a read-only C-ordered ``dtype`` copy and
        return it.  A cast that changes a value raises ValueError: 1.5, NaN
        or inf to an integer, -1 to uint64, or int64 2**53 + 1 to float64.
        Values already of ``dtype`` are copied without that check."""
        value = np.asarray(getattr(self, name))
        if value.dtype == dtype:
            arr = np.array(value, order="C")
        else:
            # A cast with no target value, such as NaN to an integer or
            # 2**63 back to int64, warns; the check below names it.
            with np.errstate(invalid="ignore"):
                arr = np.array(value, dtype=dtype, order="C")
                back = arr.astype(value.dtype)
            # The promoted comparison catches -1 wrapping to uint64, the
            # round trip a rounding that promotion repeats, as 2**53 + 1.
            if not (
                np.array_equal(arr, value, equal_nan=True)
                and np.array_equal(back, value, equal_nan=True)
            ):
                raise ValueError(f"{name} must hold {arr.dtype} values")
        arr.setflags(write=False)
        object.__setattr__(self, name, arr)
        return arr

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = [(getattr(self, f.name), getattr(other, f.name)) for f in fields(self) if f.compare]
        return all(
            np.array_equal(a, b, equal_nan=True) if isinstance(a, (np.ndarray, float)) else a == b
            for a, b in pairs
        )

    __hash__ = None


def as_float_vector(data) -> np.ndarray:
    """Validate and convert to a 1-D float64 array of finite values."""
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {x.shape}")
    if x.size < 1:
        raise ValueError("vector must hold at least one element")
    if not np.isfinite(x).all():
        raise ValueError("vector entries must be finite")
    return x


def as_float_matrix(data) -> np.ndarray:
    """Validate and convert to a 2-D float64 array of finite values."""
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {x.shape}")
    if x.shape[0] < 1 or x.shape[1] < 1:
        raise ValueError("matrix must hold at least one row and one column")
    if not np.all(np.isfinite(x)):
        raise ValueError("matrix entries must be finite")
    return x


_DISTRIBUTIONS = {
    "normal": 0,  # standard normal
    "uniform": 2,  # uniform(a, b)
    "laplace": 1,  # laplace(scale), location 0
    "lognormal": 2,  # lognormal(mu, sigma) with a random sign
}


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a reproducible synthetic vector.

    ``distribution`` is one of ``normal``, ``uniform``, ``laplace``,
    ``lognormal``; ``params`` carries the distribution parameters in the
    order shown above.  The same spec always regenerates the same data.
    """

    distribution: str
    n: int
    seed: int
    params: tuple = ()

    def __post_init__(self):
        if self.distribution not in _DISTRIBUTIONS:
            raise ValueError(
                f"unknown distribution {self.distribution!r}; "
                f"expected one of {sorted(_DISTRIBUTIONS)}"
            )
        object.__setattr__(self, "n", operator.index(self.n))
        object.__setattr__(self, "seed", operator.index(self.seed))
        arity = _DISTRIBUTIONS[self.distribution]
        params = tuple(float(p) for p in self.params)
        object.__setattr__(self, "params", params)
        if len(params) != arity:
            raise ValueError(
                f"{self.distribution} takes {arity} parameter(s), got {len(params)}"
            )
        if not all(math.isfinite(p) for p in params):
            raise ValueError("distribution parameters must be finite")
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.distribution == "laplace" and params[0] <= 0:
            raise ValueError("laplace scale must be positive")
        if self.distribution == "uniform" and not params[0] < params[1]:
            raise ValueError("uniform bounds must satisfy a < b")
        if self.distribution == "lognormal" and params[1] <= 0:
            raise ValueError("lognormal sigma must be positive")

    def label(self) -> str:
        """Compact human-readable tag, e.g. ``laplace(1)``."""
        if not self.params:
            return self.distribution
        inner = ",".join(format(p, "g") for p in self.params)
        return f"{self.distribution}({inner})"


def generate(spec: SyntheticSpec) -> np.ndarray:
    """Draw the vector described by ``spec``; a pure function of the spec.

    A spec whose draw overflows the float64 range, such as
    ``uniform(-1e308,1e308)``, raises ValueError.
    """
    rng = SplitMix64(spec.seed)
    n = spec.n
    with np.errstate(over="ignore"):
        if spec.distribution == "normal":
            out = rng.normal(n)
        elif spec.distribution == "uniform":
            a, b = spec.params
            out = a + (b - a) * rng.uniform_open01(n)
        elif spec.distribution == "laplace":
            (scale,) = spec.params
            u = rng.uniform_open01(n)
            # Inverse CDF; u is strictly inside (0, 1) so the log argument
            # is in (0, 1] and the logarithm is finite.
            out = -scale * np.where(u < 0.5, -1.0, 1.0) * np.log1p(-2.0 * np.abs(u - 0.5))
        else:
            mu, sigma = spec.params
            z = rng.normal(n)
            out = np.exp(mu + sigma * z) * rng.signs(n)
    if not np.isfinite(out).all():
        raise ValueError(f"{spec.label()} draws values beyond the float64 range")
    return out


# ---------------------------------------------------------------------------
# File formats


def _number(token: str, parse=int):
    """``parse(token)`` for ASCII text without ``_``, which ``int`` and
    ``float`` would otherwise read as digits (``1_0`` as 10, ``١٢`` as 12)."""
    if not token.isascii() or "_" in token:
        raise ValueError(f"invalid {parse.__name__} value: {token!r}")
    return parse(token)


def _infer_format(path, fmt: str | None) -> str:
    if fmt is not None:
        token = fmt.lower()
        if token not in ("fqt", "csv"):
            raise ValueError(f"unknown tensor format {fmt!r}")
        return token
    suffix = Path(path).suffix.lower()
    if suffix == ".fqt":
        return "fqt"
    if suffix == ".csv":
        return "csv"
    raise ValueError(
        f"cannot infer tensor format from {path!r}: name it .fqt or .csv,"
        " or pass fmt='fqt' or 'csv'"
    )


def save_tensor(data, path, fmt: str | None = None) -> None:
    """Write a vector or matrix to ``path`` in FQT or CSV format.

    CSV accepts only 1-D data.  FQT stores elements as 32-bit floats, so
    values are rounded to float32 precision on write; a value that rounds
    beyond the float32 range raises ValueError before anything is written,
    since the loader would reject the infinity it becomes.  Values that
    round to float32 subnormals or to 0 are kept.
    """
    token = _infer_format(path, fmt)
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 1:
        arr = as_float_vector(arr)
    elif arr.ndim == 2:
        arr = as_float_matrix(arr)
    else:
        raise ValueError(f"only rank 1 and 2 tensors are supported, got rank {arr.ndim}")

    if token == "csv":
        if arr.ndim != 1:
            raise ValueError("CSV holds flat 1-D data only; use FQT for matrices")
        Path(path).write_text(",".join(format(v, ".17g") for v in arr) + "\n")
        return

    with np.errstate(over="ignore"):
        payload = arr.astype("<f4")
    if np.isinf(payload).any():
        raise ValueError(f"{path}: a value lies beyond the float32 range of FQT")
    header = struct.pack("<4sI", _FQT_MAGIC, arr.ndim)
    header += b"".join(struct.pack("<Q", d) for d in arr.shape)
    Path(path).write_bytes(header + payload.tobytes())


def load_tensor(path, fmt: str | None = None) -> np.ndarray:
    """Read a tensor from ``path``; format inferred from the extension
    unless given explicitly.  Returns float64 data of rank 1 or 2."""
    token = _infer_format(path, fmt)
    if token == "csv":
        return _load_csv(path)
    return _load_fqt(path)


def _load_fqt(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if len(blob) < 8 or blob[:4] != _FQT_MAGIC:
        raise MalformedHeaderError(f"{path}: not an FQT file (bad magic)")
    (rank,) = struct.unpack_from("<I", blob, 4)
    if rank not in (1, 2):
        raise MalformedHeaderError(f"{path}: unsupported rank {rank}")
    dims_end = 8 + 8 * rank
    if len(blob) < dims_end:
        raise MalformedHeaderError(f"{path}: truncated dimension list")
    dims = struct.unpack_from(f"<{rank}Q", blob, 8)
    if any(d == 0 for d in dims):
        raise MalformedHeaderError(f"{path}: zero-sized dimension {dims}")
    total = math.prod(dims)
    payload = len(blob) - dims_end
    if total > _MAX_ELEMENTS or total * 4 > payload:
        raise DimensionOverflowError(
            f"{path}: header declares {total} elements but only "
            f"{payload} payload bytes are present"
        )
    if total * 4 < payload:
        raise MalformedHeaderError(f"{path}: {payload - total * 4} trailing bytes")
    flat = np.frombuffer(blob, dtype="<f4", offset=dims_end).astype(np.float64)
    if not np.all(np.isfinite(flat)):
        raise NonFiniteValueError(f"{path}: payload contains non-finite values")
    return flat.reshape(dims)


def _load_csv(path) -> np.ndarray:
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise MalformedHeaderError(f"{path}: CSV text does not decode: {exc}") from exc
    body = text.strip()
    if not body:
        raise MalformedHeaderError(f"{path}: empty CSV")
    # An empty field, as in 1,,2, stays a token and fails to parse.
    tokens = [t.strip() for t in body.replace("\n", ",").split(",")]
    values = np.empty(len(tokens), dtype=np.float64)
    # float() alone reads 1_0 and non-ASCII digits; one pass over the text
    # rules both out, and only a text that fails it is checked token by token.
    parse = float if text.isascii() and "_" not in text else lambda t: _number(t, float)
    for i, tok in enumerate(tokens):
        try:
            values[i] = parse(tok)
        except ValueError as exc:
            raise MalformedHeaderError(f"{path}: bad numeric token {tok!r}") from exc
    if not np.all(np.isfinite(values)):
        raise NonFiniteValueError(f"{path}: non-finite value in CSV")
    return values
