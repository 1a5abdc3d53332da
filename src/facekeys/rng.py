"""Seeded SplitMix-style generator for reproducible shuffles and splits.

Holdout partitions must be identical across platforms and numpy versions,
so the shuffle is driven by this tiny fixed-arithmetic generator instead of
numpy's RNG.
"""

from __future__ import annotations

from ._inputs import check_count

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """64-bit PRNG with a single word of state."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Integer in [0, bound). Modulo bias is ~bound/2**64, irrelevant here."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def permutation(n: int, seed: int) -> list[int]:
    """Deterministic permutation of range(n) for the given seed, an integer
    >= 0 (a bool is not; else ValueError)."""
    check_count("seed", seed, 0)
    idx = list(range(n))
    SplitMix64(seed).shuffle(idx)
    return idx
