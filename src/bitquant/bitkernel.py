"""Bit-packed sign planes and XOR/popcount products.

A quantized vector of k planes over n elements packs into a (k, n_words)
array of little-endian 64-bit words, n_words = ceil(n / 64): in row i, +1
becomes a set bit and -1 a clear bit, element j living at bit j mod 64 of
word j div 64.  Padding bits beyond n are zero; PackedQuantizedVector
checks this on construction.

The inner product of two +-1 planes then reduces to bit arithmetic: XOR
marks the positions where the planes differ, so

    dot(a, b) = n - 2 * popcount(a XOR b)

which is exact integer arithmetic.  Zero padding in both operands XORs to
zero, so no tail mask is needed.  A k_a-bit by k_w-bit quantized product
expands into the k_a * k_w plane products (cross terms), combined with the
level products in float64.  One kernel computes the cross terms of a stack
of rows against a stack of columns; a single dot is its 1 x 1 call.

The BQT1 container serializes a quantized vector: magic ``BQT1``, plane
count as a 32-bit unsigned integer, element count as a 64-bit unsigned
integer, the levels as float64, then each plane's packed words.  All fields
little-endian.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DimensionOverflowError,
    MalformedHeaderError,
    NonFiniteValueError,
)
from .quantizers import ScaledBinaryQuantization
from .tensor import _MAX_ELEMENTS, _Record

WORD_BITS = 64
_BQT_MAGIC = b"BQT1"
_MAX_PLANES = 64
# Size of the XOR buffer of one step of the product kernel.  A row block
# holds as many rows as fit at one word per step, at least one; a step then
# takes as many words as fit, so a small block takes all of them at once.
_STEP_BYTES = 1 << 19


def _n_words(n_bits: int) -> int:
    return (n_bits + WORD_BITS - 1) // WORD_BITS


def _tail_mask(n_bits: int) -> np.uint64:
    """All-ones mask for the occupied bits of the final word."""
    used = n_bits % WORD_BITS
    if used == 0:
        return np.uint64(0xFFFFFFFFFFFFFFFF)
    return np.uint64((1 << used) - 1)


@dataclass(frozen=True, eq=False)
class PackedQuantizedVector(_Record):
    """Quantization levels plus bit-packed sign planes.

    ``levels`` is a (k,) float64 array of finite nonnegative scalars,
    ``words`` a C-contiguous (k, ceil(n / 64)) uint64 array whose row i packs
    sign plane i, and ``n`` the element count.
    """

    levels: np.ndarray
    words: np.ndarray
    n: int

    def __post_init__(self):
        levels = self._own("levels", np.float64)
        words = self._own("words", np.uint64)
        n = operator.index(self.n)
        if n < 1:
            raise ValueError("a packed vector needs at least one element")
        if levels.ndim != 1 or levels.size < 1:
            raise ValueError("need one level per plane, at least one plane")
        if words.shape != (levels.size, _n_words(n)):
            raise ValueError(
                f"expected words of shape ({levels.size}, {_n_words(n)}) "
                f"for {levels.size} planes of {n} bits"
            )
        if not all(0.0 <= v < math.inf for v in levels.tolist()):
            raise ValueError("levels must be finite and nonnegative")
        # A full last word has no padding.
        if n % WORD_BITS and (words[:, -1] & ~_tail_mask(n)).any():
            raise ValueError("padding bits beyond n must be zero")
        object.__setattr__(self, "n", n)

    @property
    def k(self) -> int:
        return int(self.levels.size)


def pack_quantization(q: ScaledBinaryQuantization) -> PackedQuantizedVector:
    """Bit-pack the planes of a scaled binary quantization."""
    packed = np.packbits(q.planes > 0, axis=1, bitorder="little")
    if q.n % WORD_BITS:
        # packbits zero-fills the last byte; zero bytes fill the last word.
        packed = np.concatenate(
            (packed, np.zeros((q.k, 8 * _n_words(q.n) - packed.shape[1]), dtype=np.uint8)),
            axis=1,
        )
    return PackedQuantizedVector(levels=q.levels, words=packed.view("<u8"), n=q.n)


def unpack_quantization(pq: PackedQuantizedVector) -> np.ndarray:
    """Reconstruct the float64 vector sum(level_i * plane_i).

    This is the expression of ``quantizers.reconstruct``, so unpacking a
    packed quantization gives its reconstruction bit for bit.
    """
    as_bytes = pq.words.astype("<u8", copy=False).view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=1, count=pq.n, bitorder="little")
    return pq.levels @ (2.0 * bits - 1.0)


def _products(a_words, a_levels, b_words, b_levels, n: int):
    """Values of m stacked rows against p stacked columns.

    ``a_words`` is (m, ka, n_words) with levels (m, ka), ``b_words`` is
    (p, kw, n_words) with levels (p, kw).  Rows go through in blocks.  For
    each block the popcounts of the plane XORs are added up over the words,
    as many words per step as the step buffer holds: all at once for a
    small block such as a single dot's, one word per step for a large one.
    The counts are exact integers, whatever the steps.  The int64 cross
    terms ``cross[i, j, r, c]``, the product of plane i of row r with plane
    j of column c, exist for one block at a time; the last block's are
    returned with the (m, p) float64 values.  Each value is one sequential
    ``np.add.accumulate`` of the terms ``(la_i * lb_j) * cross_ij`` over
    (i, j) in row-major order, plus 0.0, which turns an all -0.0 sum into
    the +0.0 of a sum from 0.  So it does not depend on m, p or the
    blocking.
    """
    m, ka, n_words = a_words.shape
    p, kw, _ = b_words.shape
    cells = ka * kw * p
    rows = min(m, max(1, _STEP_BYTES // (8 * cells)))
    step = min(n_words, max(1, _STEP_BYTES // (8 * cells * rows)))
    # (ka, m, n_words) and (kw, p, n_words) views.
    a_t = a_words.transpose(1, 0, 2)
    b_t = b_words.transpose(1, 0, 2)
    cross = np.empty((ka, kw, rows, p), dtype=np.int64)
    count = cross
    # A call of one block and one step, such as a single dot, lets its XOR
    # and popcount allocate their results.
    flipped = ones = None
    if rows < m or step < n_words:
        flipped = np.empty(cross.shape + (step,), dtype=np.uint64)
        ones = np.empty(flipped.shape, dtype=np.uint8)
    if step < n_words:
        # Stepping through the words: copy the planes word-major, so that a
        # step reads them contiguously, and add into uint16, which is
        # faster, while it holds 64 * n_words.
        a_t, b_t = (np.ascontiguousarray(t.transpose(2, 0, 1)).transpose(1, 2, 0) for t in (a_t, b_t))
        if WORD_BITS * n_words < 1 << 16:
            count = np.empty(cross.shape, dtype=np.uint16)
    a_t = a_t[:, None, :, None]
    b_t = b_t[None, :, None]
    # Beyond a single dot, a step first copies its row and column words out
    # over the whole block: on 2^16 cells the two copies and an XOR of the
    # contiguous copies take 0.7 of the time of one XOR of the broadcast
    # views.
    tiled = rows * p > 1
    if tiled:
        a_tile = np.empty((ka, 1, rows, p, step), dtype=np.uint64)
        b_tile = np.empty((1, kw, rows, p, step), dtype=np.uint64)
    sums = np.empty((ka * kw, rows, p))
    terms = sums.reshape(cross.shape)
    values = np.empty((m, p))
    for start in range(0, m, rows):
        if m - start < rows:
            # Only the last block can be short; so are its buffer views.
            rows = m - start
            flipped, ones, count, cross, terms = (
                buf[:, :, :rows] for buf in (flipped, ones, count, cross, terms)
            )
            sums = sums[:, :rows]
            if tiled:
                a_tile, b_tile = a_tile[:, :, :rows], b_tile[:, :, :rows]
        block = slice(start, start + rows)
        for w in range(0, n_words, step):
            k = min(step, n_words - w)
            x, o = (flipped, ones) if k == step else (flipped[..., :k], ones[..., :k])
            a, b = a_t[:, :, block, :, w : w + k], b_t[..., w : w + k]
            if tiled:
                np.copyto(a_tile[..., :k], a)
                np.copyto(b_tile[..., :k], b)
                a, b = a_tile[..., :k], b_tile[..., :k]
            x = np.bitwise_xor(a, b, out=x)
            o = np.bitwise_count(x, out=o)
            if w == 0:
                np.add.reduce(o, axis=-1, dtype=count.dtype, out=count)
            else:
                count += o[..., 0] if k == 1 else o.sum(axis=-1, dtype=count.dtype)
        np.multiply(count, -2, out=cross, dtype=np.int64)
        cross += n
        np.multiply(a_levels.T[:, None, block, None], b_levels.T[None, :, None], out=terms)
        terms *= cross
        np.add.accumulate(sums, axis=0, out=sums)
        np.add(sums[-1], 0.0, out=values[block])
    return cross, values


@dataclass(frozen=True, eq=False)
class QuantizedDotResult(_Record):
    """Value and the integer plane-product table behind it."""

    value: float
    cross_terms: np.ndarray

    def __post_init__(self):
        self._own("cross_terms", np.int64)


def quantized_dot(a: PackedQuantizedVector, b: PackedQuantizedVector) -> QuantizedDotResult:
    """Dot product of two quantized vectors without dequantizing.

    ``cross_terms[i, j]`` is the exact integer product of plane i of ``a``
    with plane j of ``b``; the value accumulates level_a[i] * level_b[j] *
    cross_terms[i, j] in float64, summed in row-major order.  This is the
    1 x 1 case of :func:`quantized_matmul`.
    """
    if a.n != b.n:
        raise ValueError(f"length mismatch: {a.n} vs {b.n}")
    cross, values = _products(
        a.words[None], a.levels[None], b.words[None], b.levels[None], a.n
    )
    return QuantizedDotResult(value=float(values[0, 0]), cross_terms=cross[:, :, 0, 0])


def quantized_matmul(rows, cols) -> np.ndarray:
    """Matrix product of quantized row vectors against quantized columns.

    Entry (i, j) equals ``quantized_dot(rows[i], cols[j]).value`` exactly:
    both run the same kernel, whose per-entry arithmetic does not depend on
    how many rows and columns it is given.
    """
    rows = list(rows)
    cols = list(cols)
    if not rows or not cols:
        raise ValueError("need at least one row and one column")
    n = rows[0].n
    ka = rows[0].k
    kw = cols[0].k
    if any(r.n != n or r.k != ka for r in rows):
        raise ValueError("rows must share element count and plane count")
    if any(c.n != n or c.k != kw for c in cols):
        raise ValueError("columns must share element count and plane count")
    _, values = _products(
        np.stack([r.words for r in rows]),
        np.stack([r.levels for r in rows]),
        np.stack([c.words for c in cols]),
        np.stack([c.levels for c in cols]),
        n,
    )
    return values


# ---------------------------------------------------------------------------
# BQT1 serialization


def _check_planes(k: int) -> None:
    """Raise ValueError for more planes than BQT1 holds (64)."""
    if k > _MAX_PLANES:
        raise ValueError(f"BQT1 holds at most {_MAX_PLANES} planes, got {k}")


def _packed_bytes(pq: PackedQuantizedVector) -> bytes:
    """The BQT1 bytes of ``pq``; more than 64 planes raise ValueError."""
    _check_planes(pq.k)
    header = struct.pack("<4sIQ", _BQT_MAGIC, pq.k, pq.n)
    body = pq.levels.astype("<f8").tobytes() + pq.words.astype("<u8").tobytes()
    return header + body


def save_packed(pq: PackedQuantizedVector, path) -> None:
    """Write a packed quantized vector to ``path`` in BQT1 format."""
    Path(path).write_bytes(_packed_bytes(pq))


def load_packed(path) -> PackedQuantizedVector:
    """Read a BQT1 file back into a :class:`PackedQuantizedVector`."""
    blob = Path(path).read_bytes()
    if len(blob) < 16 or blob[:4] != _BQT_MAGIC:
        raise MalformedHeaderError(f"{path}: not a BQT1 file (bad magic)")
    k, n = struct.unpack_from("<IQ", blob, 4)
    if k < 1 or k > _MAX_PLANES:
        raise MalformedHeaderError(f"{path}: implausible plane count {k}")
    if n < 1 or n > _MAX_ELEMENTS:
        raise DimensionOverflowError(f"{path}: implausible element count {n}")
    n_words = _n_words(n)
    expected = 16 + 8 * k + 8 * k * n_words
    if len(blob) < expected:
        raise DimensionOverflowError(
            f"{path}: header promises {expected} bytes, file has {len(blob)}"
        )
    if len(blob) > expected:
        raise MalformedHeaderError(f"{path}: {len(blob) - expected} trailing bytes")
    levels = np.frombuffer(blob, dtype="<f8", count=k, offset=16)
    if not np.isfinite(levels).all() or (levels < 0).any():
        raise NonFiniteValueError(f"{path}: levels must be finite and nonnegative")
    words = np.frombuffer(blob, dtype="<u8", count=k * n_words, offset=16 + 8 * k)
    words = words.reshape(k, n_words)
    dirty = np.flatnonzero(words[:, -1] & ~_tail_mask(n))
    if dirty.size:
        raise MalformedHeaderError(f"{path}: plane {dirty[0]} has nonzero padding bits")
    return PackedQuantizedVector(levels=levels, words=words, n=int(n))
