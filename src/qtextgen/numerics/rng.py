"""Deterministic random numbers: xoshiro256** seeded through splitmix64.

Implemented over Python integers so draw sequences are bit-identical across
platforms, unlike BLAS- or OS-dependent generators.  One ``Rng`` instance is
one stream; independent streams come from `derive_seed`.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1

__all__ = ["Rng", "splitmix64", "derive_seed"]


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK


def splitmix64(x: int) -> tuple[int, int]:
    """One splitmix64 step: returns (output, advanced state)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31), x


def derive_seed(seed: int, *labels) -> int:
    """Fold string/int labels into a seed to get an independent stream."""
    h = int(seed) & _MASK
    for lab in labels:
        for byte in str(lab).encode("utf-8"):
            h = ((h ^ byte) * 0x100000001B3) & _MASK
        h, _ = splitmix64(h)
    return h


class Rng:
    """xoshiro256** stream."""

    algorithm = "xoshiro256**"

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK
        s, x = [], self.seed
        for _ in range(4):
            out, x = splitmix64(x)
            s.append(out)
        self._s = s

    def next_uint64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK, 7) * 9) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_uint64() >> 11) * 2.0 ** -53

    def uniform(self, low: float, high: float, shape=None):
        if shape is None:
            return low + (high - low) * self.random()
        n = int(np.prod(shape))
        vals = np.array([self.random() for _ in range(n)])
        return (low + (high - low) * vals).reshape(shape)

    def normal(self, shape=None, scale=1.0):
        """Box-Muller normals; two uniform draws per sample, no spare cached."""
        def one():
            u1 = 1.0 - self.random()
            u2 = self.random()
            return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)

        if shape is None:
            return scale * one()
        n = int(np.prod(shape))
        return (scale * np.array([one() for _ in range(n)])).reshape(shape)

    def randrange(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next_uint64()
            if v < limit:
                return v % n

    def shuffle(self, seq: list) -> list:
        """In-place Fisher-Yates shuffle; returns the same list."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.randrange(i + 1)
            seq[i], seq[j] = seq[j], seq[i]
        return seq

    def choice_weighted(self, weights) -> int:
        """Index drawn proportionally to nonnegative weights."""
        w = np.asarray(weights, dtype=np.float64)
        c = np.cumsum(w)
        if c[-1] <= 0:
            raise ValueError("weights must have positive total")
        u = self.random() * c[-1]
        return int(min(np.searchsorted(c, u, side="right"), len(w) - 1))
