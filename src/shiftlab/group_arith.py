"""Arithmetic over Z_N: modulus bookkeeping, products, 2-adic valuations,
and the integer ceilings the schedules and solvers share.

Python integers are unbounded, so products never overflow; the 2^63-1 cap on
N is a contract bound (labels must fit the array plumbing downstream), not an
arithmetic one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GuardError

N_CAP = (1 << 63) - 1

# Sentinel for the 2-adic valuation of 0 (divisible by every power of two).
VAL_INF = float("inf")


@dataclass(frozen=True)
class Modulus:
    """A group order N >= 2 with its bit length n = ceil(log2 N)."""

    N: int

    def __post_init__(self) -> None:
        if not isinstance(self.N, int):
            raise TypeError("N must be an int")
        if self.N < 2:
            raise GuardError(f"N must be >= 2, got {self.N}")
        if self.N > N_CAP:
            raise GuardError(f"N must be <= 2^63 - 1, got {self.N}")

    @property
    def n(self) -> int:
        # ceil(log2 N): number of bits needed to index Z_N labels.
        return ceil_log2(self.N)

    @property
    def is_pow2(self) -> bool:
        return self.N & (self.N - 1) == 0

    @property
    def is_odd(self) -> bool:
        return self.N % 2 == 1


def mul_mod(a: int, b: int, mod: Modulus | int) -> int:
    """(a * b) mod N, exact for any ints in range."""
    N = mod.N if isinstance(mod, Modulus) else mod
    return (a * b) % N


def two_adic_valuation(x: int) -> int | float:
    """Largest j with 2^j | x; VAL_INF for x = 0."""
    if x == 0:
        return VAL_INF
    return (x & -x).bit_length() - 1


def ceil_div(a: int, b: int) -> int:
    """ceil(a / b) for b > 0, exact on ints of any size."""
    return -(-a // b)


def ceil_log2(x: int) -> int:
    """ceil(log2 x) for x >= 1: the bit width of the integers in [0, x)."""
    return (x - 1).bit_length()
