"""Self-contained SplitMix64 PRNG.

Instance generation and solver seeding must produce identical streams on
any Python version, so we avoid ``random`` and numpy generators (whose
method-level streams are not guaranteed stable across releases) and ship
the reference SplitMix64 scrambler instead.  Uniform integers below a
bound use rejection sampling, so every draw is exactly uniform and the
draw count is deterministic for a given seed.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


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
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n), exact via rejection sampling."""
        if n <= 0:
            raise ValueError(f"randbelow needs a positive bound, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        # ``u64`` written out: the generator draws thousands of times per game
        state = self._state
        while True:
            state = (state + _GAMMA) & _MASK64
            z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
            z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
            z ^= z >> 31
            if z < limit:
                self._state = state
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
