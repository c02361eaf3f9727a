"""Subset-sum instance flavors and solution sets, each a sorted int64 mask array.

Solutions are bitmask ints: bit i set means weights[i] participates. The
module-level masked_sum, modular_ancilla, interval_ancilla and
interval_bounds are the single source of truth for subset sums and ancilla
values; the instance classes, the combination routines and the solvers all
call them (or check()) rather than reimplementing the arithmetic.
combine.brute_run, the pipeline's brute-force kernel, reads every sum from
a table of the input labels' subset sums instead of calling masked_sum,
and writes three steps out inline, because a call per row costs more than
the step: the witness draw, the ancilla value and window
(modular_ancilla, interval_ancilla and interval_bounds) and the preimage
scans. combine.combine_labels runs every solver, brute force included,
through these functions, and the kernel tests pin the kernel to it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..group_arith import ceil_div


def masked_sum(weights: tuple[int, ...], mask: int) -> int:
    """Sum of the weights whose bit is set in mask; bits at or beyond
    len(weights) select nothing. Walks the set bits only."""
    mask &= (1 << len(weights)) - 1
    total = 0
    while mask:
        low = mask & -mask
        total += weights[low.bit_length() - 1]
        mask ^= low
    return total


def modular_ancilla(total: int, r: int) -> int:
    """The modular ancilla value of a sum: its r low bits."""
    return total % (1 << r)


def interval_ancilla(total: int, B: int, r: int) -> int:
    """The interval ancilla value of a sum: floor(total * 2^(r-1) / B)."""
    return (total << (r - 1)) // B


def interval_bounds(target: int, B: int, r: int) -> tuple[int, int]:
    """The half-open integer interval [lo, hi) of sums whose interval
    ancilla value is target."""
    scale = 1 << (r - 1)
    return ceil_div(target * B, scale), ceil_div((target + 1) * B, scale)


class _WeightedInstance:
    """What both flavors share: k weights and their subset sums."""

    weights: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.weights)

    def subset_sum(self, mask: int) -> int:
        return masked_sum(self.weights, mask)


@dataclass(frozen=True)
class ModularInstance(_WeightedInstance):
    """Find all x in {0,1}^k with x.weights == target (mod 2^r)."""

    weights: tuple[int, ...]
    r: int
    target: int

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("r must be >= 1")
        if not 0 <= self.target < (1 << self.r):
            raise ValueError("target must lie in [0, 2^r)")
        if min(self.weights, default=0) < 0:
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "weights", tuple(map(int, self.weights)))

    @property
    def flavor(self) -> str:
        return "modular"

    def ancilla(self, mask: int) -> int:
        return modular_ancilla(self.subset_sum(mask), self.r)

    def check(self, mask: int) -> bool:
        return self.ancilla(mask) == self.target


@dataclass(frozen=True)
class IntervalInstance(_WeightedInstance):
    """Find all x with floor(x.weights * 2^(r-1) / B) == target.

    Equivalently x.weights in [lo, hi) with the exact integer bounds below;
    weights live in [0, B).
    """

    weights: tuple[int, ...]
    B: int
    r: int
    target: int

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("r must be >= 1")
        if self.B < 1:
            raise ValueError("B must be >= 1")
        if self.weights and not (0 <= min(self.weights) and max(self.weights) < self.B):
            raise ValueError("weights must lie in [0, B)")
        if self.target < 0:
            raise ValueError("target must be >= 0")
        object.__setattr__(self, "weights", tuple(map(int, self.weights)))

    @property
    def flavor(self) -> str:
        return "interval"

    def bounds(self) -> tuple[int, int]:
        """The half-open integer interval of sums mapping to target."""
        return interval_bounds(self.target, self.B, self.r)

    def ancilla(self, mask: int) -> int:
        return interval_ancilla(self.subset_sum(mask), self.B, self.r)

    def check(self, mask: int) -> bool:
        lo, hi = self.bounds()
        return lo <= self.subset_sum(mask) < hi


Instance = ModularInstance | IntervalInstance


def random_instance(
    flavor: str,
    k: int,
    r: int,
    rng: random.Random,
    B: int | None = None,
    plant: bool = True,
) -> Instance:
    """A random instance; with plant=True the target is the ancilla value of a
    uniformly drawn witness, which is how targets arise in the simulation.
    With plant=False the target is uniform over the ancilla values a subset
    could reach: [0, 2^r) for modular, [0, ancilla(all weights)] for
    interval, so the instance may have no solution."""
    if flavor == "modular":
        weights = tuple(rng.randrange(1 << r) for _ in range(k))
        if plant:
            target = modular_ancilla(masked_sum(weights, rng.randrange(1 << k)), r)
        else:
            target = rng.randrange(1 << r)
        return ModularInstance(weights, r, target)
    if flavor == "interval":
        if B is None:
            B = 1 << k
        weights = tuple(rng.randrange(B) for _ in range(k))
        if plant:
            target = interval_ancilla(masked_sum(weights, rng.randrange(1 << k)), B, r)
        else:
            target = rng.randrange(interval_ancilla(sum(weights), B, r) + 1)
        return IntervalInstance(weights, B, r, target)
    raise ValueError(f"unknown flavor {flavor!r}")


@dataclass(frozen=True, eq=False)
class SolutionSet:
    """All solutions of one instance plus cost accounting. masks, the one
    format, is sorted, unique and read-only int64, as the exact solvers' join
    yields it; solutions, its frozenset, is built on first use."""

    masks: np.ndarray
    op_count: int
    mem_peak: int
    # True from an exact solver (brute, mitm, ss, rep's degenerate mode): the
    # full set; False from seeded rounds (rep's ternary mode, memless)
    exhausted: bool = False
    stats: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.masks.flags.writeable = False

    @cached_property
    def solutions(self) -> frozenset[int]:
        return frozenset(self.masks.tolist())

    def __len__(self) -> int:
        return len(self.masks)

    def __contains__(self, mask: int) -> bool:
        return mask in self.solutions
