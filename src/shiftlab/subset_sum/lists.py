"""Sorted partial-sum lists and the constrained join primitive.

A PartialSumList holds (value, digit-vector) entries, digit vectors packed as
two bitmasks: plus (digit +1) and minus (digit -1). Plain {0,1} splits leave
minus empty. merge_join emits every cross pair whose value sum satisfies the
constraint and whose digit vectors are compatible; it is the single building
block behind the meet-in-the-middle, guess-and-meet and representation
solvers, and is oracle-tested against a quadratic scan.

subset_sums builds the table of all 2^m subset sums of a weight segment
from whole-array products: a segment of at most _BASE_BITS weights is one
product of a cached 0/1 selection matrix with the weight vector, and a
longer segment is split into two halves whose tables are joined by an outer
sum. Index bit i of an entry still selects weights[i].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..group_arith import ceil_log2


@dataclass
class OpCounter:
    """Abstract operation and live-cell accounting shared across a solve."""

    ops: int = 0
    mem_peak: int = 0
    budget: int | None = None

    def add(self, ops: int) -> None:
        self.ops += ops

    def bump_mem(self, cells: int) -> None:
        if cells > self.mem_peak:
            self.mem_peak = cells

    def over_budget(self) -> bool:
        return self.budget is not None and self.ops > self.budget


@dataclass(frozen=True)
class WindowConstraint:
    """(sum mod 2^t) must fall in the cyclic window [residue, residue+count).

    count=1 is the plain modular-residue constraint; wider windows arise when
    an interval target only pins a range of low-order residues.
    """

    t: int
    residue: int
    count: int = 1

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ValueError("t must be >= 1")
        if not 0 <= self.residue < (1 << self.t):
            raise ValueError("residue outside [0, 2^t)")
        if not 1 <= self.count <= (1 << self.t):
            raise ValueError("count outside [1, 2^t]")

    def matches(self, total: int) -> bool:
        return ((total - self.residue) % (1 << self.t)) < self.count


@dataclass(frozen=True)
class IntervalConstraint:
    """lo <= sum < hi on the plain integer value."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise ValueError("empty interval")

    def matches(self, total: int) -> bool:
        return self.lo <= total < self.hi


Constraint = WindowConstraint | IntervalConstraint


def _as_i64(a) -> np.ndarray:
    return np.asarray(a, dtype=np.int64)


@dataclass
class PartialSumList:
    """Entries sorted by value; digit vectors packed into plus/minus masks."""

    values: np.ndarray
    plus: np.ndarray
    minus: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.values = _as_i64(self.values)
        self.plus = _as_i64(self.plus)
        if self.minus is None:
            self.minus = np.zeros_like(self.plus)
        else:
            self.minus = _as_i64(self.minus)
        if not (len(self.values) == len(self.plus) == len(self.minus)):
            raise ValueError("column lengths differ")
        order = np.argsort(self.values, kind="stable")
        self.values = self.values[order]
        self.plus = self.plus[order]
        self.minus = self.minus[order]

    def __len__(self) -> int:
        return len(self.values)


# _BITS[m] is the 2^m x m 0/1 matrix whose row j holds the bits of j, so
# _BITS[m] @ w lists every subset sum of m weights (about 28 KB for all nine).
_BASE_BITS = 8
_BITS = [
    ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1).astype(np.int64)
    for m in range(_BASE_BITS + 1)
]


def subset_sums(weights: list[int] | tuple[int, ...]) -> np.ndarray:
    """All 2^m subset sums of a weight segment; index bits select weights.

    Up to _BASE_BITS weights: one selection-matrix product. Longer segments
    split at h = m // 2, and the outer sum of the two halves' tables puts
    high[i] + low[j] at index i*2^h + j.
    The int64 arithmetic is exact (numpy does not route integer products
    through BLAS) as long as every sum fits, which sums_fit guarantees.
    """
    m = len(weights)
    if m <= _BASE_BITS:
        return _BITS[m] @ np.asarray(weights, dtype=np.int64)
    h = m // 2
    return np.add.outer(subset_sums(weights[h:]), subset_sums(weights[:h])).ravel()


def _expand_ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row i emit pairs (i, j) for j in [lo[i], hi[i])."""
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    rows = np.repeat(np.arange(len(lo), dtype=np.int64), counts)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    offsets = np.arange(total, dtype=np.int64) - starts
    cols = np.repeat(lo, counts) + offsets
    return rows, cols


# Digit-compatibility modes for the packed ternary vectors.
CONSISTENCY_DISJOINT = None       # supports guaranteed disjoint (plain splits)
CONSISTENCY_TERNARY = "ternary"   # digit sums must stay within {-1,0,1}
CONSISTENCY_BINARY = "binary"     # digit sums must land in {0,1} (final assembly)


def merge_join(
    a: PartialSumList,
    b: PartialSumList,
    constraint: Constraint,
    consistency: str | None = CONSISTENCY_DISJOINT,
    counter: OpCounter | None = None,
) -> PartialSumList:
    """All compatible cross pairs of a x b whose value sums satisfy the constraint.

    Charged op count: |a| log |a| + |b| log |a| + output size (sort the first
    list, binary-search per entry of the second, write the output).
    """
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        out = PartialSumList(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        if counter is not None:
            counter.add((la + lb) * ceil_log2(max(la, 2)))
        return out

    if isinstance(constraint, WindowConstraint):
        mod = np.int64(1) << np.int64(constraint.t)
        key_a = a.values % mod
        order = np.argsort(key_a, kind="stable")
        sorted_keys = key_a[order]
        # need the window [residue - vb, residue - vb + count) mod 2^t per b row;
        # split cyclic windows into at most two linear ranges over sorted keys.
        start = (np.int64(constraint.residue) - b.values) % mod
        count = np.int64(constraint.count)
        end = start + count
        wrap = end > mod
        end_lin = np.where(wrap, mod, end)
        rows1, cols1 = _expand_ranges(
            np.searchsorted(sorted_keys, start, side="left"),
            np.searchsorted(sorted_keys, end_lin, side="left"),
        )
        if bool(wrap.any()):
            end2 = np.where(wrap, end - mod, np.int64(0))
            rows2, cols2 = _expand_ranges(
                np.zeros(lb, dtype=np.int64),
                np.searchsorted(sorted_keys, end2, side="left"),
            )
            rows = np.concatenate([rows1, rows2])
            cols = np.concatenate([cols1, cols2])
        else:
            rows, cols = rows1, cols1
        a_idx = order[cols]
        b_idx = rows
    else:
        order = np.argsort(a.values, kind="stable")
        sorted_vals = a.values[order]
        lo_need = np.int64(constraint.lo) - b.values
        hi_need = np.int64(constraint.hi) - b.values
        rows, cols = _expand_ranges(
            np.searchsorted(sorted_vals, lo_need, side="left"),
            np.searchsorted(sorted_vals, hi_need, side="left"),
        )
        a_idx = order[cols]
        b_idx = rows

    p1, m1 = a.plus[a_idx], a.minus[a_idx]
    p2, m2 = b.plus[b_idx], b.minus[b_idx]
    if consistency is CONSISTENCY_DISJOINT:
        valid = np.ones(len(a_idx), dtype=bool)
        plus = p1 | p2
        minus = m1 | m2
    elif consistency == CONSISTENCY_TERNARY:
        valid = ((p1 & p2) == 0) & ((m1 & m2) == 0)
        plus = (p1 | p2) & ~(m1 | m2)
        minus = (m1 | m2) & ~(p1 | p2)
    elif consistency == CONSISTENCY_BINARY:
        valid = (
            ((p1 & p2) == 0)
            & ((m1 & m2) == 0)
            & ((m1 & ~p2) == 0)
            & ((m2 & ~p1) == 0)
        )
        plus = (p1 | p2) & ~(m1 | m2)
        minus = np.zeros_like(plus)
    else:
        raise ValueError(f"unknown consistency mode {consistency!r}")

    values = a.values[a_idx] + b.values[b_idx]
    out = PartialSumList(values[valid], plus[valid], minus[valid])
    if counter is not None:
        logn = max(1, ceil_log2(la))
        counter.add(la * logn + lb * logn + len(out))
        counter.bump_mem(la + lb + len(out))
    return out
