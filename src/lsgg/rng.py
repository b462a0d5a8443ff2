"""Deterministic seeded random number generation.

The generator is SplitMix64 (Steele, Lea & Flood 2014; Vigna's splitmix64.c),
a counter-based 64-bit generator: the n-th output is a fixed avalanche mix of
``seed + n * GOLDEN_GAMMA``.  Because each output depends only on the seed and
the draw index, blocks of draws can be produced vectorized with numpy uint64
arithmetic while scalar draws come from the exact same stream.

Integer and uniform-double draws are bit-identical on every platform.
Gaussian draws use Box-Muller on top of the uniform stream; they are
bit-identical across runs on one platform and equal up to libm ulp-level
rounding of log/cos/sin across platforms.

All results files in this project derive their randomness from this module,
never from ``random`` or ``numpy.random``.
"""

from __future__ import annotations

import hashlib

import numpy as np

GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = 0xFFFFFFFFFFFFFFFF
_INV_2_53 = 2.0 ** -53


def _mix64(z: int) -> int:
    """SplitMix64 finalizer on a python int (mod 2^64)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix64_block(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _tag_to_int(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & _MASK64
    if isinstance(tag, str):
        # stable 64-bit digest, never python's salted hash()
        return int.from_bytes(hashlib.blake2b(tag.encode("utf-8"), digest_size=8).digest(), "little")
    raise TypeError(f"rng tag must be int or str, got {type(tag).__name__}")


class SeededRng:
    """Counter-based deterministic RNG: identical seed, identical sequence.

    Single-owner by contract: never share one instance across concurrent
    consumers.  Use :meth:`derive` to fork independent child streams.
    """

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError("seed must be an integer")
        self.seed = int(seed) & _MASK64
        self._counter = 0
        self._base = _mix64(self.seed ^ GOLDEN_GAMMA)  # decorrelate trivially related seeds

    def derive(self, *tags) -> "SeededRng":
        """Fork an independent stream keyed by (seed, tags); does not consume draws."""
        s = self._base
        for tag in tags:
            s = _mix64((s + GOLDEN_GAMMA) ^ _tag_to_int(tag))
        return SeededRng(s)

    # -- core streams ------------------------------------------------------

    def next_u64(self) -> int:
        self._counter += 1
        return _mix64((self._base + self._counter * GOLDEN_GAMMA) & _MASK64)

    def _u64_block(self, n: int) -> np.ndarray:
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        z = np.uint64(self._base) + idx * np.uint64(GOLDEN_GAMMA)
        return _mix64_block(z)

    def random_block(self, n: int) -> np.ndarray:
        return (self._u64_block(n) >> np.uint64(11)).astype(np.float64) * _INV_2_53

    # -- derived draws -----------------------------------------------------

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection."""
        if n <= 0:
            raise ValueError("randint bound must be positive")
        limit = _MASK64 + 1 - ((_MASK64 + 1) % n)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n

    def randint_block(self, bounds) -> np.ndarray:
        """One uniform integer in [0, n) per bound n, equal to successive
        ``randint(n)`` calls: same values, same rejections, same draws consumed."""
        bounds = np.asarray(bounds, dtype=np.int64).ravel()
        if bounds.size and bounds.min() <= 0:
            raise ValueError("randint bound must be positive")
        b = bounds.astype(np.uint64)
        rem = (np.uint64(_MASK64) % b + np.uint64(1)) % b  # 2^64 mod n
        out = np.empty(bounds.size, dtype=np.int64)
        pos = 0
        while pos < bounds.size:
            r = self._u64_block(bounds.size - pos)
            rm = rem[pos:]
            # randint rejects r >= 2^64 - rem; -rem wraps to exactly that limit
            rejected = np.flatnonzero((rm > 0) & (r >= np.uint64(0) - rm))
            stop = int(rejected[0]) if rejected.size else r.size
            out[pos : pos + stop] = r[:stop] % b[pos : pos + stop]
            if stop == r.size:
                break
            self._counter -= r.size - stop - 1  # the rejected draw stays consumed
            pos += stop
        return out

    def normal_block(self, n: int) -> np.ndarray:
        """n standard-normal draws, Box-Muller over uniform pairs.

        Consumes exactly 2*ceil(n/2) uniforms; no carry between calls.
        """
        m = (n + 1) // 2
        u = self.random_block(2 * m)
        u1 = 1.0 - u[:m]  # in (0, 1], keeps log finite
        u2 = u[m:]
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * np.pi) * u2
        out = np.empty(2 * m)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def normal(self, shape) -> np.ndarray:
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape),)
        size = 1
        for s in shape:
            if s < 0:
                raise ValueError("negative dimension in shape")
            size *= int(s)
        return self.normal_block(size).reshape(shape)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        n = len(items)
        for i, j in zip(range(n - 1, 0, -1), self.randint_block(np.arange(n, 1, -1)).tolist()):
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> list:
        out = list(range(n))
        self.shuffle(out)
        return out

