"""Sorted partial-sum lists and the constrained join primitive.

A PartialSumList holds (value, digit-vector) entries, digit vectors packed as
two bitmasks: plus (digit +1) and minus (digit -1). Plain {0,1} splits leave
minus empty. Lists are immutable once built, so each stores the key sorts
that joins ask of it (by_key) and sorts by the same key at most once, however
many guesses, weight classes or rounds reuse it. merge_join emits every cross
pair whose value sum satisfies the constraint and whose digit vectors are
compatible; it is the single building block behind the meet-in-the-middle,
guess-and-meet and representation solvers, and is oracle-tested against a
quadratic scan.

subset_sums builds the table of all 2^m subset sums of a weight segment
from whole-array products: a segment of at most _BASE_BITS weights is one
product of a cached 0/1 selection matrix with the weight vector, and a
longer segment is split into two parts whose tables are joined by an outer
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
    an interval target only pins a range of low-order residues, and count=0
    (an interval target with empty bounds) matches nothing.
    """

    t: int
    residue: int
    count: int = 1

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ValueError("t must be >= 1")
        if not 0 <= self.residue < (1 << self.t):
            raise ValueError("residue outside [0, 2^t)")
        if not 0 <= self.count <= (1 << self.t):
            raise ValueError("count outside [0, 2^t]")

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
    """Entries sorted by value; digit vectors packed into plus/minus masks.

    A list is never mutated after construction: by_key stores the sorts it
    computes on the list and hands them to every later join.
    """

    values: np.ndarray
    plus: np.ndarray
    minus: np.ndarray = field(default=None)  # type: ignore[assignment]
    _by_key: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.values = _as_i64(self.values)
        self.plus = _as_i64(self.plus)
        if self.minus is None:
            self.minus = np.zeros_like(self.plus)
        else:
            self.minus = _as_i64(self.minus)
        if not (len(self.values) == len(self.plus) == len(self.minus)):
            raise ValueError("column lengths differ")
        # Sorting by value here is kept even though joins sort by key: a key
        # sort and the searchsorted probes run faster on value-ordered input.
        order = np.argsort(self.values, kind="stable")
        self.values = self.values[order]
        self.plus = self.plus[order]
        self.minus = self.minus[order]

    def __len__(self) -> int:
        return len(self.values)

    def by_key(self, t: int | None) -> tuple[np.ndarray, np.ndarray]:
        """(order, sorted_keys) for keys values & (2^t - 1), or the values
        themselves when t is None; stable, computed once per list and t.

        The t = None entry is the construction sort: the identity order.
        """
        hit = self._by_key.get(t)
        if hit is None:
            if t is None:
                hit = (np.arange(len(self.values), dtype=np.int64), self.values)
            else:
                keys = self.values & np.int64((1 << t) - 1)
                order = np.argsort(keys, kind="stable")
                hit = (order, keys[order])
            self._by_key[t] = hit
        return hit


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
    split at h, and the outer sum of the two parts' tables puts
    high[i] + low[j] at index i*2^h + j. Up to 16 weights h = m // 2; above
    that the high part holds 4 weights (h = m - 4), because numpy's broadcast
    add runs about twice as fast over 16 long rows as over 2^(m/2) short ones.
    The int64 arithmetic is exact (numpy does not route integer products
    through BLAS) as long as every sum fits, which sums_fit guarantees.
    """
    m = len(weights)
    if m <= _BASE_BITS:
        return _BITS[m] @ np.asarray(weights, dtype=np.int64)
    h = m // 2 if m <= 16 else m - 4
    return np.add.outer(subset_sums(weights[h:]), subset_sums(weights[:h])).ravel()


def _expand_ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row i emit pairs (i, j) for j in [lo[i], hi[i])."""
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    rows = np.repeat(np.arange(len(lo), dtype=np.int64), counts)
    # pair p of row i sits at column lo[i] + (p - first pair of row i)
    cols = np.arange(total, dtype=np.int64) - (np.cumsum(counts) - counts - lo)[rows]
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

    a's entries are taken in key order from a.by_key (the low t bits of the
    value for a window, the value for an interval), so a list joined again
    under the same key is not sorted again. Each entry of b binary-searches
    the range of keys it needs; a cyclic window that wraps past 2^t splits
    into two linear ranges.

    Charged op count: |a| log |a| + |b| log |a| + output size (sort the first
    list, binary-search per entry of the second, write the output), whether
    or not a's sort was already stored.
    """
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        out = PartialSumList(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        if counter is not None:
            counter.add((la + lb) * ceil_log2(max(la, 2)))
        return out

    if isinstance(constraint, WindowConstraint):
        mod = np.int64(1) << np.int64(constraint.t)
        order, sorted_keys = a.by_key(constraint.t)
        # need the window [residue - vb, residue - vb + count) mod 2^t per b row
        start = (np.int64(constraint.residue) - b.values) & (mod - 1)
        end = start + np.int64(constraint.count)
        # every key is below 2^t, so an end past 2^t already stops at |a|
        rows, cols = _expand_ranges(
            np.searchsorted(sorted_keys, start, side="left"),
            np.searchsorted(sorted_keys, end, side="left"),
        )
        wrap = end > mod
        if bool(wrap.any()):
            end2 = np.where(wrap, end - mod, np.int64(0))
            rows2, cols2 = _expand_ranges(
                np.zeros(lb, dtype=np.int64),
                np.searchsorted(sorted_keys, end2, side="left"),
            )
            rows = np.concatenate([rows, rows2])
            cols = np.concatenate([cols, cols2])
    else:
        order, sorted_keys = a.by_key(None)
        rows, cols = _expand_ranges(
            np.searchsorted(sorted_keys, np.int64(constraint.lo) - b.values, side="left"),
            np.searchsorted(sorted_keys, np.int64(constraint.hi) - b.values, side="left"),
        )
    a_idx = order[cols]
    b_idx = rows

    values = a.values[a_idx] + b.values[b_idx]
    p1, m1 = a.plus[a_idx], a.minus[a_idx]
    p2, m2 = b.plus[b_idx], b.minus[b_idx]
    if consistency is CONSISTENCY_DISJOINT:
        out = PartialSumList(values, p1 | p2, m1 | m2)
    else:
        if consistency == CONSISTENCY_TERNARY:
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
        out = PartialSumList(values[valid], plus[valid], minus[valid])
    if counter is not None:
        logn = max(1, ceil_log2(la))
        counter.add(la * logn + lb * logn + len(out))
        counter.bump_mem(la + lb + len(out))
    return out
