"""Deterministic 64-bit PRNG for all synthetic-corpus randomness.

The generator is SplitMix64: state advances by a fixed odd constant and
each output is a 3-stage xorshift-multiply finalizer of the new state.
Constants (also listed in the README so other implementations can match
the corpus byte-for-byte):

    GAMMA = 0x9E3779B97F4A7C15   state increment
    MIX1  = 0xBF58476D1CE4E5B9   first multiplier
    MIX2  = 0x94D049BB133111EB   second multiplier

Because the state of a stream seeded with ``s`` after ``k`` steps is just
``s + k * GAMMA (mod 2**64)``, output ``k`` (0-based) of the stream is
``finalize(s + (k + 1) * GAMMA)``.  The vectorized form of that identity
exists only for Gaussian fields: ``add_normal`` draws a field in blocks,
each from its own offset into the stream, bit-identical to the scalar
class.  Every other draw goes through ``SplitMix64``.
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


# Field elements drawn per block.  A field allocates its block buffers once:
# the step table, the states and the finalizer's scratch, 3 x 256 KB of
# uint64 that stay in cache through the Box-Muller steps.
_FIELD_BLOCK = 1 << 14


def add_normal(out: np.ndarray, seed: int, sigma: float) -> None:
    """Add a Gaussian field from one stream (Box-Muller pairs) to ``out`` in place.

    Element ``i`` of ``out`` (row-major) uses stream outputs ``2i`` and
    ``2i + 1``, so the field is a pure function of (seed, out.size, sigma).
    It is drawn in blocks of ``_FIELD_BLOCK`` elements, each from its own
    offset into the stream; the block size changes no bit of the result.
    ``out`` must be a C-contiguous float64 array: a flat view of anything
    else would be a copy, and the noise would land in that copy.
    """
    if not isinstance(out, np.ndarray) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError("add_normal needs a C-contiguous float64 array")
    flat = out.reshape(-1)
    m = flat.size
    b = min(m, _FIELD_BLOCK)
    # the block starting at element lo holds states (seed + 2 lo GAMMA) + steps
    steps = np.arange(1, 2 * b + 1, dtype=np.uint64)
    steps *= np.uint64(GAMMA)
    z = np.empty(2 * b, dtype=np.uint64)
    t = np.empty(2 * b, dtype=np.uint64)
    seed = int(seed) & MASK64
    for lo in range(0, m, _FIELD_BLOCK):
        n = min(b, m - lo)
        u, scratch = z[: 2 * n], t[: 2 * n]
        np.add(steps[: 2 * n], np.uint64((seed + 2 * lo * GAMMA) & MASK64), out=u)
        # the SplitMix64 finalizer, vectorized
        for shift, mult in ((30, MIX1), (27, MIX2), (31, None)):
            np.right_shift(u, np.uint64(shift), out=scratch)
            u ^= scratch
            if mult is not None:
                u *= np.uint64(mult)
        u >>= np.uint64(11)
        # the finalizer is done with its scratch, which now holds the two float halves
        theta, radius = scratch.view(np.float64).reshape(2, n)
        # radius = sqrt(-2 ln u1) with u1 in (0, 1]; angle = 2 pi u2 with u2 in [0, 1)
        np.add(u[0::2], 1.0, out=radius)
        radius *= _INV_2_53
        np.log(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        np.multiply(u[1::2], _INV_2_53, out=theta)
        theta *= 2.0 * np.pi
        np.cos(theta, out=theta)
        radius *= theta
        radius *= sigma
        flat[lo : lo + n] += radius
