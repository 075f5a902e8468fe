"""Deterministic random number generation.

All synthetic data in this package comes from a counter-based SplitMix64
stream (the mixing function of the splitmix64 generator, reference
implementation at https://prng.di.unimi.it/splitmix64.c).  Output word i of
the stream with seed s is

    mix64(s + (i + 1) * 0x9E3779B97F4A7C15)

which equals the i-th output of sequential splitmix64 seeded with s.  Using
the counter form lets us produce any block of the stream as a single
vectorized numpy expression, so generation is fast, order-independent, and
bit-for-bit reproducible across platforms.

Uniform doubles are taken from the top 53 bits of each word, shifted into
the open interval (0, 1):  u = ((w >> 11) + 0.5) * 2**-53.  Normals use the
Box-Muller transform (https://en.wikipedia.org/wiki/Box-Muller_transform) on
consecutive pairs of uniforms.
"""

from __future__ import annotations

import operator

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = 0xFFFFFFFFFFFFFFFF


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: xor-shift / multiply avalanche on uint64 words."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


class SplitMix64:
    """Counter-based SplitMix64 stream.

    The stream position advances with every draw, so a single instance
    yields non-overlapping blocks; two instances with the same seed yield
    identical sequences.
    """

    def __init__(self, seed: int):
        self._seed = np.uint64(operator.index(seed) & _U64_MASK)
        self._pos = 0

    def words(self, count: int) -> np.ndarray:
        """Next ``count`` raw 64-bit words as a uint64 array."""
        count = operator.index(count)
        if count < 0:
            raise ValueError("count must be nonnegative")
        start = self._pos
        self._pos += count
        idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
        return _mix64(self._seed + idx * _GOLDEN)

    def uniform_open01(self, count: int) -> np.ndarray:
        """Doubles in the open interval (0, 1), one per stream word."""
        w = self.words(count)
        return ((w >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53

    def normal(self, count: int) -> np.ndarray:
        """Standard normal deviates via Box-Muller on pairs of uniforms.

        Consumes 2 * ceil(count / 2) stream words regardless of parity.
        """
        pairs = (count + 1) // 2
        u1 = self.uniform_open01(pairs)
        u2 = self.uniform_open01(pairs)
        radius = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * np.pi) * u2
        out = np.empty(2 * pairs, dtype=np.float64)
        out[0::2] = radius * np.cos(theta)
        out[1::2] = radius * np.sin(theta)
        return out[:count]

    def signs(self, count: int) -> np.ndarray:
        """Random +-1 values (int8), one per stream word, from the top bit.

        A clear top bit maps to +1, a set top bit to -1.
        """
        w = self.words(count)
        return np.where((w >> np.uint64(63)) == 0, 1, -1).astype(np.int8)
