"""Counter-based random streams.

All randomness in the library is derived from ``substream(seed, *path)``:
a Philox generator keyed by the user seed and an integer path.  Entities that
could be generated in parallel (sketch rows, Monte-Carlo draw blocks) each get
their own path index, so results never depend on evaluation order or thread
count.

Rademacher signs are read straight from the raw 64-bit words of a
substream's Philox generator by :func:`rademacher`, with the exact values and
order of ``g.integers(0, 2, size) * 2.0 - 1.0``.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_CHUNK = 8192  # raw words read at a time: 64 KB, so no array of a block's size
_SIGN = np.uint64(1 << 63)
_MINUS_ONE = np.uint64(0xBFF0_0000_0000_0000)  # the bits of -1.0


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for (seed, path), stable across runs and schedules."""
    ss = np.random.SeedSequence(
        entropy=int(seed) & _MASK64, spawn_key=tuple(int(p) & _MASK64 for p in path)
    )
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(seed: int, index: int) -> int:
    """Deterministic 64-bit child seed, used by the CLI to split a master seed."""
    ss = np.random.SeedSequence(entropy=int(seed) & _MASK64, spawn_key=(int(index),))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def rademacher(g: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous float64 array ``out`` with +-1 draws of the
    generator ``g`` of a :func:`substream` and return it.

    The draws are bit for bit ``g.integers(0, 2, out.shape) * 2.0 - 1.0``,
    and ``g.random()`` continues as it would after that call.  ``integers``
    takes one 32-bit half of a raw Philox word per draw, low half first, and
    with a range of 2 Lemire's method never rejects and returns the half's
    top bit: draw k is +1 exactly when bit 31 (k even) or bit 63 (k odd) of
    raw word k // 2 is set.  The words are shifted as integers, never viewed
    as halves, so the result is the same in either byte order; a set bit
    clears the sign bit of -1.0."""
    bits = out.reshape(-1).view(np.uint64)
    for start in range(0, bits.size, 2 * _CHUNK):
        chunk = bits[start : start + 2 * _CHUNK]
        even, odd = chunk[0::2], chunk[1::2]
        words = g.bit_generator.random_raw(even.size)
        np.bitwise_and(words[: odd.size], _SIGN, out=odd)
        np.left_shift(words, np.uint64(32), out=words)
        np.bitwise_and(words, _SIGN, out=even)
        np.bitwise_xor(chunk, _MINUS_ONE, out=chunk)
    return out
