"""Deterministic random number generation.

All synthetic data in this package comes from a counter-based SplitMix64
stream (the mixing function of the splitmix64 generator, reference
implementation at https://prng.di.unimi.it/splitmix64.c).  Output word i of
the stream with seed s is

    mix64(s + (i + 1) * 0x9E3779B97F4A7C15)

which equals the i-th output of sequential splitmix64 seeded with s.  The
counter form makes every word a function of its position alone (Steele, Lea
& Flood, "Fast splittable pseudorandom number generators", OOPSLA 2014), so
any stretch of the stream can be computed on its own.  Every draw goes
through one block loop, ``SplitMix64._fill``: it mixes ``_BLOCK`` positions
at a time in place in reused buffers, and the draw turns them into output
while they are still in cache, so no full-length temporary is built.  The
result is bit for bit what each formula gives over the whole array at once.

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


def _box_muller(w: np.ndarray, out: np.ndarray) -> None:
    """Normal pairs into the (m, 2) rows of ``out``: pair j from the radius
    of word j and the angle of word m + j of ``w``, which is consumed."""
    m = len(out)
    u = w.view(np.float64)
    _uniforms(w, u)
    r, t = u.reshape(2, m)
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    t *= 2.0 * np.pi
    # cos and sin run on contiguous halves of out, as over a whole array;
    # the pairs then interleave their products.
    c, s = out.reshape(2, m)
    np.cos(t, out=c)
    np.sin(t, out=s)
    np.multiply(r, s, out=t)
    r *= c
    out[...] = u.reshape(2, m).T


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

    def _fill(self, out: np.ndarray, convert, runs: int = 1) -> np.ndarray:
        """Fill ``out`` from the next ``runs`` runs of ``len(out)`` stream
        words and return it.  Block by block, ``convert(w, out[lo:hi])``
        gets the words at offsets lo..hi-1 of each run, one run after the
        other, in a reused uint64 buffer ``w`` that it may consume, also as
        float64 scratch."""
        count = len(out)
        start = self._pos
        self._pos += runs * count
        size = min(count, _BLOCK)
        # (i + 1) * golden for the i-th position of a block, modulo 2**64.
        steps = np.arange(1, size + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        buf = np.empty(runs * size, dtype=np.uint64)
        t = np.empty(size, dtype=np.uint64)
        for lo in range(0, count, _BLOCK):
            m = min(count - lo, _BLOCK)
            w = buf[: runs * m]
            for r, run in enumerate(w.reshape(runs, m)):
                # Word i of the block is mix64(seed + (pos + i + 1) * golden).
                pos = start + r * count + lo
                base = np.uint64((self._seed + pos * _GOLDEN) & _U64_MASK)
                np.add(steps[:m], base, out=run)
                _mix64(run, t[:m])
            convert(w, out[lo : lo + m])
        return out

    def words(self, count: int) -> np.ndarray:
        """Next ``count`` raw 64-bit words as a uint64 array."""
        return self._fill(np.empty(_nonnegative(count), np.uint64), lambda w, d: np.copyto(d, w))

    def uniform_open01(self, count: int) -> np.ndarray:
        """Doubles in the open interval (0, 1), one per stream word."""
        return self._fill(np.empty(_nonnegative(count)), _uniforms)

    def normal(self, count: int) -> np.ndarray:
        """Standard normal deviates via Box-Muller on pairs of uniforms.

        Consumes 2 * ceil(count / 2) stream words regardless of parity.
        """
        pairs = (_nonnegative(count) + 1) // 2
        return self._fill(np.empty((pairs, 2)), _box_muller, runs=2).reshape(-1)[:count]

    def signs(self, count: int) -> np.ndarray:
        """Random +-1 values (int8), one per stream word, from the top bit.

        A clear top bit maps to +1, a set top bit to -1.
        """
        return self._fill(np.empty(_nonnegative(count), np.int8), _signs)
