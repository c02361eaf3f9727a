"""Seeded format-preserving permutation of Z_N.

A 4-round keyed Feistel network permutes [0, 2^(2h)) where 2h is the smallest
even bit-width covering N; cycle-walking maps that to a permutation of
[0, N). Deterministic in (seed, N), cheap to evaluate point-wise, and with no
exploitable algebraic relation to the group structure, which is all the
injective-oracle construction needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .group_arith import ceil_log2
from .seeds import MASK64, derive, splitmix64

_ROUNDS = 4


@dataclass(frozen=True)
class KeyedPermutation:
    """Bijection of [0, N) defined by a 64-bit seed."""

    N: int
    seed: int
    _half_bits: int = field(init=False, repr=False)
    _keys: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError("N must be >= 1")
        bits = max(2, ceil_log2(self.N))
        half = (bits + 1) // 2
        object.__setattr__(self, "_half_bits", half)
        object.__setattr__(
            self, "_keys", tuple(derive(self.seed, 0x1D, i) for i in range(_ROUNDS))
        )

    def _feistel(self, x: int) -> int:
        h = self._half_bits
        mask = (1 << h) - 1
        left, right = x >> h, x & mask
        for key in self._keys:
            left, right = right, left ^ (splitmix64((right ^ key) & MASK64) & mask)
        return (left << h) | right

    def apply(self, x: int) -> int:
        """P(x) for x in [0, N); walks the Feistel cycle until back in range."""
        if not 0 <= x < self.N:
            raise ValueError(f"x = {x} outside [0, {self.N})")
        y = self._feistel(x)
        # Cycle-walk: the Feistel permutes the power-of-two superset, so
        # iterating from an in-range point re-enters [0, N) in O(domain/N)
        # expected steps (at most 4 here since domain < 4N).
        while y >= self.N:
            y = self._feistel(y)
        return y
