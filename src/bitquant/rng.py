"""Deterministic random number generation.

All synthetic data in this package comes from a counter-based SplitMix64
stream (the mixing function of the splitmix64 generator, reference
implementation at https://prng.di.unimi.it/splitmix64.c).  Output word i of
the stream with seed s is

    mix64(s + (i + 1) * 0x9E3779B97F4A7C15)

which equals the i-th output of sequential splitmix64 seeded with s.  The
counter form makes every word a function of its position alone (Steele, Lea
& Flood, "Fast splittable pseudorandom number generators", OOPSLA 2014), so
any stretch of the stream can be computed on its own.  Every draw is filled
in blocks of ``_BLOCK`` positions: a block's words are mixed in place in
reused buffers, and the caller turns them into output while they are still
in cache, so no full-length temporary is built.  The result is bit for bit
what each formula gives evaluated over the whole array at once.

Uniform doubles are taken from the top 53 bits of each word, shifted into
the open interval (0, 1):  u = ((w >> 11) + 0.5) * 2**-53.  Normals use the
Box-Muller transform (https://en.wikipedia.org/wiki/Box-Muller_transform):
a draw of n normals takes m = ceil(n / 2) uniforms for the radii, then m
for the angles, and output pair j comes from radius j and angle j.
"""

from __future__ import annotations

import operator

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = 0xFFFFFFFFFFFFFFFF

# Stream positions per block: 256 KiB per uint64 or float64 buffer, so a
# block's buffers stay in a per-core L2 cache.
_BLOCK = 1 << 15


def _mix64(z: np.ndarray, t: np.ndarray) -> None:
    """SplitMix64 finalizer, in place on the uint64 words ``z``; ``t`` is
    scratch of the same length."""
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=t)
        z ^= t
        z *= mult
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t


def _uniforms(w: np.ndarray, out: np.ndarray) -> None:
    """Uniform doubles of the words ``w`` into ``out``; ``w`` is consumed."""
    np.right_shift(w, np.uint64(11), out=w)
    # Below 2**53, so the int64 view converts exactly, and faster.
    out[...] = w.view(np.int64)
    out += 0.5
    out *= 2.0**-53


def _signs(w: np.ndarray, out: np.ndarray) -> None:
    """+1 for a clear top bit of ``w``, -1 for a set one, into ``out``; ``w``
    is consumed."""
    np.right_shift(w, np.uint64(63), out=w)
    out[...] = w
    out *= -2
    out += 1


def _nonnegative(count) -> int:
    """``count`` as an int; a negative count raises ValueError."""
    count = operator.index(count)
    if count < 0:
        raise ValueError("count must be nonnegative")
    return count


class SplitMix64:
    """Counter-based SplitMix64 stream.

    The stream position advances with every draw, so a single instance
    yields non-overlapping blocks; two instances with the same seed yield
    identical sequences.
    """

    def __init__(self, seed: int):
        self._seed = operator.index(seed) & _U64_MASK
        self._pos = 0

    def _blocks(self, count: int, runs: int = 1):
        """Take ``runs`` consecutive runs of ``count`` stream words.

        Returns ``count`` and an iterator over blocks ``(lo, hi, w)``: row r
        of the uint64 array ``w`` holds the words at offsets lo..hi-1 of run
        r.  The stream advances at once; ``w`` is reused from block to block.
        """
        count = _nonnegative(count)
        start = self._pos
        self._pos += runs * count
        size = min(count, _BLOCK)
        # (i + 1) * golden for the i-th position of a block, modulo 2**64.
        steps = np.arange(1, size + 1, dtype=np.uint64)
        steps *= np.uint64(_GOLDEN)
        w = np.empty((runs, size), dtype=np.uint64)
        t = np.empty(size, dtype=np.uint64)

        def blocks():
            for lo in range(0, count, _BLOCK):
                m = min(count - lo, _BLOCK)
                for r in range(runs):
                    # Word i of the block is mix64(seed + (pos + i + 1) * golden).
                    pos = start + r * count + lo
                    base = np.uint64((self._seed + pos * _GOLDEN) & _U64_MASK)
                    np.add(steps[:m], base, out=w[r, :m])
                    _mix64(w[r, :m], t[:m])
                yield lo, lo + m, w[:, :m]

        return count, blocks()

    def _fill(self, count: int, dtype, convert) -> np.ndarray:
        """The next ``count`` stream words, each block turned into ``dtype``
        output by ``convert(w, out)``, which may consume ``w``."""
        count, blocks = self._blocks(count)
        out = np.empty(count, dtype=dtype)
        for lo, hi, w in blocks:
            convert(w[0], out[lo:hi])
        return out

    def words(self, count: int) -> np.ndarray:
        """Next ``count`` raw 64-bit words as a uint64 array."""
        return self._fill(count, np.uint64, lambda w, out: np.copyto(out, w))

    def uniform_open01(self, count: int) -> np.ndarray:
        """Doubles in the open interval (0, 1), one per stream word."""
        return self._fill(count, np.float64, _uniforms)

    def normal(self, count: int) -> np.ndarray:
        """Standard normal deviates via Box-Muller on pairs of uniforms.

        Consumes 2 * ceil(count / 2) stream words regardless of parity.
        """
        count = _nonnegative(count)
        pairs, blocks = self._blocks((count + 1) // 2, runs=2)
        out = np.empty(2 * pairs, dtype=np.float64)
        radius, theta, trig = np.empty((3, min(pairs, _BLOCK)))
        for lo, hi, w in blocks:
            m = hi - lo
            r, t, c = radius[:m], theta[:m], trig[:m]
            _uniforms(w[0], r)
            np.log(r, out=r)
            r *= -2.0
            np.sqrt(r, out=r)
            _uniforms(w[1], t)
            t *= 2.0 * np.pi
            np.cos(t, out=c)
            np.multiply(r, c, out=out[2 * lo : 2 * hi : 2])
            np.sin(t, out=c)
            np.multiply(r, c, out=out[2 * lo + 1 : 2 * hi : 2])
        return out[:count]

    def signs(self, count: int) -> np.ndarray:
        """Random +-1 values (int8), one per stream word, from the top bit.

        A clear top bit maps to +1, a set top bit to -1.
        """
        return self._fill(count, np.int8, _signs)
