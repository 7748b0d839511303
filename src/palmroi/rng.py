"""Deterministic 64-bit PRNG for all synthetic-corpus randomness.

The generator is SplitMix64: state advances by a fixed odd constant and
each output is a 3-stage xorshift-multiply finalizer of the new state.
Constants (also listed in the README so other implementations can match
the corpus byte-for-byte):

    GAMMA = 0x9E3779B97F4A7C15   state increment
    MIX1  = 0xBF58476D1CE4E5B9   first multiplier
    MIX2  = 0x94D049BB133111EB   second multiplier

Because the state of a stream seeded with ``s`` after ``k`` steps is just
``s + k * GAMMA (mod 2**64)``, whole streams can be produced vectorized:
element ``k`` (0-based) of the stream is ``finalize(s + (k + 1) * GAMMA)``.
The scalar class and the vectorized stream functions are bit-identical.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

# float in [0, 1) uses the top 53 bits of a 64-bit output
_INV_2_53 = 2.0 ** -53


def _finalize(z: int) -> int:
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return z ^ (z >> 31)


def mix(*values: int) -> int:
    """Fold integers into a single 64-bit seed (order-sensitive).

    Used to derive per-identity and per-sample seeds from a master seed
    so that every image in a corpus has an independent, reproducible
    stream: ``mix(master, tag, index, ...)``.
    """
    acc = GAMMA
    for v in values:
        acc = _finalize((acc + (int(v) & MASK64)) & MASK64)
    return acc


class SplitMix64:
    """Scalar SplitMix64 stream; one instance per logical decision stream."""

    def __init__(self, seed: int):
        self._state = int(seed) & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GAMMA) & MASK64
        return _finalize(self._state)

    def next_float(self) -> float:
        """Uniform float in [0, 1)."""
        return (self.next_u64() >> 11) * _INV_2_53

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends inclusive.

        Plain modulo reduction; the bias is ~span/2**64 and irrelevant
        for the spans used here (< 2**10).
        """
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_float()

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]


def stream_u64(seed: int, n: int) -> np.ndarray:
    """First ``n`` outputs of SplitMix64(seed), vectorized (uint64)."""
    idx = np.arange(1, n + 1, dtype=np.uint64)
    z = np.uint64(int(seed) & MASK64) + np.uint64(GAMMA) * idx
    z = (z ^ (z >> np.uint64(30))) * np.uint64(MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(MIX2)
    return z ^ (z >> np.uint64(31))


def stream_floats(seed: int, n: int) -> np.ndarray:
    """First ``n`` uniform [0, 1) floats of the stream, vectorized."""
    return (stream_u64(seed, n) >> np.uint64(11)).astype(np.float64) * _INV_2_53


def normal_field(seed: int, shape: tuple, sigma: float = 1.0) -> np.ndarray:
    """Gaussian field of the given shape from one stream (Box-Muller pairs).

    Element ``i`` (row-major) uses stream outputs ``2i`` and ``2i + 1``, so
    the field is a pure function of (seed, shape, sigma).
    """
    m = int(np.prod(shape))
    u = stream_u64(seed, 2 * m)
    u1 = ((u[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
    u2 = (u[1::2] >> np.uint64(11)).astype(np.float64) * _INV_2_53
    z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return (sigma * z).reshape(shape)
