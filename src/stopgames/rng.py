"""Self-contained SplitMix64 PRNG.

Instance generation and solver seeding must produce identical streams on
any Python and NumPy version, so we avoid ``random`` and NumPy's
``Generator`` (whose method-level streams are not guaranteed stable across
releases) and ship the reference SplitMix64 scrambler instead (Steele, Lea
& Flood, "Fast splittable pseudorandom number generators", OOPSLA 2014).
Uniform integers below a bound use rejection sampling, so every draw is
exactly uniform and the draw count is deterministic for a given seed.

``Rng`` computes its outputs ``_BATCH`` at a time with NumPy uint64 array
arithmetic and hands them out from a list.  That keeps the stream fixed
too: the batch is SplitMix64 itself, written as array adds, shifts, xors
and multiplies, and uint64 array arithmetic wraps modulo 2**64 on every
NumPy release; nothing of NumPy's own sampling is used.  Every operand is
a uint64 array or ``np.uint64`` scalar, so no mixed-type promotion (which
NumPy 1.x and 2.x resolve differently) can turn it into float or int64.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# Outputs computed per refill of an ``Rng``.
_BATCH = 256
# k * gamma mod 2**64 for k = 1.._BATCH: the batch's states less its base
_STEPS = np.arange(1, _BATCH + 1, dtype=np.uint64) * np.uint64(_GAMMA)
_M1, _M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_S27, _S30, _S31 = np.uint64(27), np.uint64(30), np.uint64(31)


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, *parts: int) -> int:
    """Fold integer salt parts into a master seed, one scramble per part.

    Used everywhere a sub-stream is needed (retry attempts, per-instance
    seeds, per-run seeds) so that one 64-bit master seed controls a whole
    benchmark reproducibly.
    """
    h = master & _MASK64
    for p in parts:
        h = _mix((h + _GAMMA + (p & _MASK64)) & _MASK64)
    return h


class Rng:
    """SplitMix64 stream with uniform helpers.

    Draw order contract: callers document the order in which they invoke
    these helpers; together with the fixed seed that pins the output.
    ``randint`` and ``shuffle`` draw through ``randbelow``.

    ``_buf`` holds the outputs of the current batch and ``_i`` the index
    of the next one; ``_used`` outputs came before the batch.
    """

    __slots__ = ("_seed", "_used", "_buf", "_i")

    def __init__(self, seed: int):
        self._seed = seed & _MASK64
        self._used = -_BATCH  # the first draw refills, starting at output 0
        self._buf: list[int] = []
        self._i = _BATCH

    @property
    def _state(self) -> int:
        """The SplitMix64 state after the last draw: seed + k * gamma mod
        2**64 after k outputs."""
        return (self._seed + (self._used + self._i) * _GAMMA) & _MASK64

    def _refill(self) -> list[int]:
        self._used += _BATCH
        z = _STEPS + np.uint64((self._seed + self._used * _GAMMA) & _MASK64)
        z = (z ^ (z >> _S30)) * _M1
        z = (z ^ (z >> _S27)) * _M2
        self._buf = buf = (z ^ (z >> _S31)).tolist()
        self._i = 0
        return buf

    def u64(self) -> int:
        i = self._i
        if i == _BATCH:
            self._refill()
            i = 0
        self._i = i + 1
        return self._buf[i]

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n), exact via rejection sampling."""
        if n <= 0:
            raise ValueError(f"randbelow needs a positive bound, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        buf, i = self._buf, self._i
        while True:
            if i == _BATCH:
                buf, i = self._refill(), 0
            z = buf[i]
            i += 1
            if z < limit:
                self._i = i
                return z % n

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive on both ends."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.randbelow(hi - lo + 1)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates, descending index."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]
