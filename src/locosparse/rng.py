"""Deterministic counter-based random numbers.

A splitmix-style 64-bit finalizer applied to a strided counter gives a
stateless generator: the k-th output word depends only on (seed, k).
Draws are therefore reproducible across platforms and independent of
how callers chunk their requests, and independent streams can be
derived by folding tags into the seed.
"""

import numpy as np

from .errors import ConfigError

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

_U11 = np.uint64(11)
_U32 = np.uint64(32)
_INV53 = 2.0 ** -53


def mix64(z):
    """Scramble a 64-bit integer or a uint64 array (splitmix-style finalizer)."""
    z = z & _MASK
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK
    return z ^ (z >> 31)


def derive_seed(seed, *parts):
    """Fold integer or string tags into a seed.

    Distinct tag sequences give independent streams, so components can
    share one user-facing seed without their draws interfering.
    """
    acc = mix64((seed & _MASK) ^ _GOLDEN)
    for part in parts:
        if isinstance(part, str):
            acc = mix64(acc ^ len(part))
            for byte in part.encode("utf-8"):
                acc = mix64((acc + _GOLDEN + byte) & _MASK)
        elif isinstance(part, int):
            acc = mix64((acc + _GOLDEN) & _MASK ^ (part & _MASK))
        else:
            raise ConfigError(
                f"seed parts must be int or str, got {type(part).__name__}")
    return acc


class CounterRng:
    """Reproducible stream of draws; the state is just (seed, position).

    Word k of the stream is mix64(seed + (k + 1) * golden), evaluated
    with vectorized uint64 arithmetic, so any prefix of the stream can
    be regenerated from the seed alone.
    """

    def __init__(self, seed):
        self._base = np.uint64(seed & _MASK)
        self._golden = np.uint64(_GOLDEN)
        self._pos = 0

    def _words(self, n):
        ks = np.arange(self._pos + 1, self._pos + n + 1, dtype=np.uint64)
        self._pos += n
        return mix64(self._base + ks * self._golden)

    def uniforms(self, n):
        """n doubles uniform on [0, 1)."""
        return (self._words(n) >> _U11).astype(np.float64) * _INV53

    def normals(self, n):
        """n standard normals via the Box-Muller cosine branch.

        Each normal consumes a pair of counter words, so concatenated
        calls reproduce a single larger call exactly.
        """
        w = self._words(2 * n)
        u1 = (w[0::2] >> _U11).astype(np.float64) * _INV53
        u2 = (w[1::2] >> _U11).astype(np.float64) * _INV53
        u1 = np.maximum(u1, _INV53)  # keep log() off the u1 = 0 corner
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)

    def integers(self, n, bound):
        """n integers uniform on [0, bound) for 0 < bound < 2**31."""
        if not 0 < bound < (1 << 31):
            raise ConfigError(f"bound must be in (0, 2^31), got {bound}")
        hi = self._words(n) >> _U32
        return ((hi * np.uint64(bound)) >> _U32).astype(np.int64)
