"""Sorted partial-sum lists and the constrained join primitive.

A PartialSumList holds (value, digit-vector) entries, digit vectors packed as
two bitmasks: plus (digit +1) and minus (digit -1). Plain {0,1} splits leave
minus empty. Lists are immutable once built, so each stores the key sorts
that joins ask of it (by_key) and sorts by the same key at most once, however
many weight classes or rounds reuse it. join_pairs finds every cross pair
whose value sum satisfies the constraint; it is the one join in the
package, and charge_join its one charge. merge_join builds a list from its
pairs whose digit vectors are compatible (only the representation solver
builds lists so); the exact solvers take their masks from join_pairs.

subset_sums builds the table of all 2^m subset sums of a weight segment,
or one table per row of a (B, m) weight array, from whole-array products:
a short segment is one product of a cached 0/1 selection matrix with the
weights, and a longer one is split into two parts whose tables are joined
by an outer sum. Index bit i of an entry still selects weights[i].
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

    def add(self, ops: int) -> None:
        self.ops += ops

    def bump_mem(self, cells: int) -> None:
        if cells > self.mem_peak:
            self.mem_peak = cells


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


@dataclass(frozen=True)
class IntervalConstraint:
    """lo <= sum < hi on the plain integer value."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise ValueError("empty interval")


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
        order = np.argsort(self.values)
        self.values = self.values[order]
        self.plus = self.plus[order]
        self.minus = self.minus[order]

    def __len__(self) -> int:
        return len(self.values)

    def by_key(self, t: int | None) -> tuple[np.ndarray, np.ndarray]:
        """(order, sorted_keys) for keys values & (2^t - 1), or the values
        themselves when t is None (equal keys in no set order); computed
        once per list and t.

        The t = None entry is the construction sort: the identity order.
        """
        hit = self._by_key.get(t)
        if hit is None:
            if t is None:
                hit = (np.arange(len(self.values), dtype=np.int64), self.values)
            else:
                keys = self.values & np.int64((1 << t) - 1)
                order = np.argsort(keys)
                hit = (order, keys[order])
            self._by_key[t] = hit
        return hit


# _BITS[dtype][m] is the 2^m x m 0/1 matrix whose row j holds the bits of j,
# so _BITS[dtype][m] @ w lists every subset sum of m weights of that dtype
# (about 28 KB for all nine int64 ones).
_BASE_BITS = 8
_BITS = {
    dtype: [
        ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1).astype(dtype)
        for m in range(_BASE_BITS + 1)
    ]
    for dtype in (np.dtype(np.int32), np.dtype(np.int64))
}
# widest single product when building several rows at once
_ROWS_BASE_BITS = 6


def subset_sums(weights: list[int] | tuple[int, ...] | np.ndarray) -> np.ndarray:
    """All 2^m subset sums of m weights, index bits selecting weights; for
    a (B, m) array, the (B, 2^m) array of each row's table. An int32 array
    gives int32 tables, anything else int64 ones.

    A segment of at most _BASE_BITS weights (one row) or _ROWS_BASE_BITS
    (several rows) is one selection-matrix product. A product costs m * 2^m
    multiply-adds per row, so it beats splitting only while per-call cost
    dominates, which is the one-row case. Longer segments split at h, and
    the outer sum of the two parts' tables puts high[i] + low[j] at index
    i*2^h + j. The high part holds 4 weights (h = m - 4) for one row of
    more than 16 weights and for several rows of 12 or more, because
    numpy's broadcast add runs faster over 16 long rows than over 2^(m/2)
    short ones: about twice as fast at 18 weights, and a (32, 12) int32
    wave builds about a fifth faster than at h = 6. Otherwise, as at 10
    weights, where 16 rows were slower, h = m // 2. The integer
    arithmetic is exact (numpy does not route integer products through
    BLAS) as long as every sum fits the dtype, which sums_fit guarantees
    for int64 and solvers.table_dtype for int32.
    """
    if getattr(weights, "dtype", None) == np.int32:
        w = weights
    else:
        w = np.asarray(weights, dtype=np.int64)
    one_row = w.ndim == 1
    m = w.shape[-1]
    if m <= (_BASE_BITS if one_row else _ROWS_BASE_BITS):
        bits = _BITS[w.dtype][m]
        return bits @ w if one_row else w @ bits.T
    h = m - 4 if (m > 16 if one_row else m >= 12) else m // 2
    high, low = subset_sums(w[..., h:]), subset_sums(w[..., :h])
    if one_row:
        return np.add.outer(high, low).ravel()
    return (high[:, :, None] + low[:, None, :]).reshape(len(w), -1)


def _key_ranges(
    sorted_keys: np.ndarray, lo_keys: np.ndarray, hi_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols): for each row i, ascending, every column j with
    lo_keys[i] <= sorted_keys[j] < hi_keys[i], ascending; sorted_keys is
    nonempty and lo_keys <= hi_keys.

    hi_keys is searched only on the rows whose range is nonempty, i.e. whose
    first key at or above lo_keys[i] exists and lies below hi_keys[i]: a
    sparse join, such as meet-in-the-middle's at r = k - 1, then pays one
    binary search per row, not two.
    """
    lo = np.searchsorted(sorted_keys, lo_keys, side="left")
    first = sorted_keys.take(lo, mode="clip")
    rows = ((lo_keys <= first) & (first < hi_keys)).nonzero()[0]
    lo = lo[rows]
    counts = np.searchsorted(sorted_keys, hi_keys[rows], side="left") - lo
    ends = np.cumsum(counts)
    # pair p of a range sits at column lo + (p - the range's first pair)
    total = ends[-1] if len(ends) else 0
    cols = np.arange(total, dtype=np.int64) - np.repeat(ends - counts - lo, counts)
    return np.repeat(rows, counts), cols


# Digit-compatibility modes for the packed ternary vectors: rep's final
# assembly is the one BINARY join, every other join is DISJOINT.
CONSISTENCY_DISJOINT = None       # supports guaranteed disjoint (plain splits)
CONSISTENCY_BINARY = "binary"     # digit sums must land in {0,1} (final assembly)


def join_pairs(
    a: PartialSumList, b: PartialSumList, constraint: Constraint
) -> tuple[np.ndarray, np.ndarray]:
    """(a_idx, b_idx): every cross pair of nonempty lists a x b whose value
    sum satisfies the constraint, as entry indices, grouped by b entry.

    a's entries are taken in key order from a.by_key (the low t bits of the
    value for a window, the value for an interval), so a list joined again
    under the same key is not sorted again. Each entry of b binary-searches
    the range of keys it needs; a cyclic window that wraps past 2^t splits
    into two linear ranges. Charges nothing: callers charge the join.
    """
    if isinstance(constraint, WindowConstraint):
        mod = np.int64(1) << np.int64(constraint.t)
        order, sorted_keys = a.by_key(constraint.t)
        # need the window [residue - vb, residue - vb + count) mod 2^t per b row
        start = (np.int64(constraint.residue) - b.values) & (mod - 1)
        end = start + np.int64(constraint.count)
        # every key is below 2^t, so an end past 2^t already stops at |a|
        rows, cols = _key_ranges(sorted_keys, start, end)
        # start < 2^t, so only a window of count > 1 can wrap
        wrap = (end > mod).nonzero()[0] if constraint.count > 1 else ()
        if len(wrap):
            rows2, cols2 = _key_ranges(sorted_keys, np.zeros(len(wrap), np.int64), end[wrap] - mod)
            rows = np.concatenate([rows, wrap[rows2]])
            cols = np.concatenate([cols, cols2])
    else:
        order, sorted_keys = a.by_key(None)
        rows, cols = _key_ranges(
            sorted_keys, np.int64(constraint.lo) - b.values, np.int64(constraint.hi) - b.values
        )
    return order[cols], rows


def charge_join(counter: OpCounter, la: int, lb: int, out: int) -> None:
    """A join's charge for inputs of sizes la and lb and out results:
    (la + lb) * ceil(log2 max(la, 2)) + out ops (sort the first list,
    binary-search per entry of the second, write the output) and, unless
    an input is empty, a peak of la + lb + out live cells."""
    counter.add((la + lb) * ceil_log2(max(la, 2)) + out)
    if la and lb:
        counter.bump_mem(la + lb + out)


def merge_join(
    a: PartialSumList,
    b: PartialSumList,
    constraint: Constraint,
    consistency: str | None,
    counter: OpCounter,
) -> PartialSumList:
    """All compatible cross pairs of a x b whose value sums satisfy the
    constraint: join_pairs' pairs, their digit vectors checked in the given
    consistency mode.

    Charged as charge_join, whether or not a's sort was already stored.
    """
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        charge_join(counter, la, lb, 0)
        return PartialSumList(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

    a_idx, b_idx = join_pairs(a, b, constraint)
    values = a.values[a_idx] + b.values[b_idx]
    p1, m1 = a.plus[a_idx], a.minus[a_idx]
    p2, m2 = b.plus[b_idx], b.minus[b_idx]
    if consistency is CONSISTENCY_DISJOINT:
        out = PartialSumList(values, p1 | p2, m1 | m2)
    elif consistency == CONSISTENCY_BINARY:
        valid = (
            ((p1 & p2) == 0)
            & ((m1 & m2) == 0)
            & ((m1 & ~p2) == 0)
            & ((m2 & ~p1) == 0)
        )
        plus = ((p1 | p2) & ~(m1 | m2))[valid]
        out = PartialSumList(values[valid], plus, np.zeros_like(plus))
    else:
        raise ValueError(f"unknown consistency mode {consistency!r}")
    charge_join(counter, la, lb, len(out))
    return out
