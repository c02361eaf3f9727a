"""Exact solvers: full enumeration and the two- and four-list merges."""

from __future__ import annotations

import numpy as np

from ..errors import GuardError
from ..kinds import BRUTE, SOLVER_WIDTHS, SS
from .instances import Instance, ModularInstance, SolutionSet, masked_sum
from .lists import (
    IntervalConstraint,
    OpCounter,
    PartialSumList,
    WindowConstraint,
    merge_join,
    subset_sums,
)

BRUTE_K_CAP = SOLVER_WIDTHS[BRUTE][1]
SS_K_MIN = SOLVER_WIDTHS[SS][0]
_CHUNK_BITS = 18
# int64 partial sums must not overflow even when k weights stack up.
_SUM_SAFE_BITS = 62
# sums_fit keeps every subset sum in [0, _SUM_CAP), so a nonnegative bound
# capped at _SUM_CAP compares with every sum exactly as the bound itself does
_SUM_CAP = 1 << _SUM_SAFE_BITS
# table_dtype's int32 tables keep every sum in [0, 2^31) the same way
_INT32_BITS = 31
# by table itemsize: reduce_table's unsigned view for interval sums, and the
# cap below every sum
_REDUCED = {4: (np.uint32, 1 << _INT32_BITS), 8: (np.uint64, _SUM_CAP)}


def sums_fit(k: int, top: int) -> bool:
    """Whether every subset sum of k weights in [0, top] fits the int64 bound."""
    return k * top < (1 << _SUM_SAFE_BITS)


def table_dtype(k: int, top: int):
    """int32 when every subset sum of k weights in [0, top] stays below
    2^31, else int64: the dtype of a brute-force table of those weights.
    int64 sums past 2^63 wrap mod 2^64 (numpy warns of none), which keeps
    every residue mod a power of two up to 2^64: pipeline._Wave's
    power-of-two rows rely on it."""
    return np.int32 if k * top < (1 << _INT32_BITS) else np.int64


def check_weight_magnitude(weights) -> None:
    if not sums_fit(len(weights), max(weights, default=0)):
        raise GuardError("weights too large for 64-bit partial sums")


def full_constraint(inst: Instance) -> WindowConstraint | IntervalConstraint:
    """The instance equation as a join constraint on total sums.

    Interval bounds are capped at _SUM_CAP so they fit int64. At
    r > _SUM_SAFE_BITS a residue is the sum itself, so the residue constraint
    becomes the point interval [target, target + 1), which keeps the window
    arithmetic in merge_join below 2^63.
    """
    if isinstance(inst, ModularInstance):
        if inst.r <= _SUM_SAFE_BITS:
            return WindowConstraint(inst.r, inst.target)
        lo, hi = inst.target, inst.target + 1
    else:
        lo, hi = inst.bounds()
    return IntervalConstraint(min(lo, _SUM_CAP), min(hi, _SUM_CAP))


def window_for(inst: Instance, bits: int, taken: int) -> WindowConstraint:
    """Constraint on the complementary summand once `taken` is fixed mod 2^bits."""
    mod = 1 << bits
    if isinstance(inst, ModularInstance):
        return WindowConstraint(bits, (inst.target - taken) % mod)
    lo, hi = inst.bounds()
    return WindowConstraint(bits, (lo - taken) % mod, min(hi - lo, mod))


def expected_solutions(inst: Instance) -> int:
    """Density estimate: expected solution count of a random instance."""
    if isinstance(inst, ModularInstance):
        return 1 << max(0, inst.k - inst.r)
    lo, hi = inst.bounds()
    span = sum(inst.weights) + 1
    return max(1, ((1 << inst.k) * (hi - lo)) // span)


def solve_bruteforce(inst: Instance) -> SolutionSet:
    """Exact solution set by scanning all 2^k subset vectors.

    The operation count is 2^k by definition of the method. Enumeration is
    chunked: the low min(k, _CHUNK_BITS) positions are expanded once into a
    table of subset sums (lists.subset_sums), which brute_scan tests chunk
    by chunk.
    """
    if inst.k > BRUTE_K_CAP:
        raise GuardError(f"k={inst.k} exceeds brute-force cap {BRUTE_K_CAP}")
    check_weight_magnitude(inst.weights)
    counter = OpCounter()
    low_bits = min(inst.k, _CHUNK_BITS)
    table = subset_sums(inst.weights[:low_bits])
    counter.bump_mem(len(table))
    high_weights = inst.weights[low_bits:]
    if isinstance(inst, ModularInstance):
        found = brute_scan(table, high_weights, counter, r=inst.r, target=inst.target)
    else:
        found = brute_scan(table, high_weights, counter, bounds=inst.bounds())
    return SolutionSet(
        frozenset(found),
        op_count=counter.ops,
        mem_peak=counter.mem_peak,
        exhausted=True,
        stats={"solver": "brute"},
    )


def brute_scan(
    table: np.ndarray,
    high_weights,
    counter: OpCounter,
    *,
    r: int | None = None,
    target: int = 0,
    bounds: tuple[int, int] | None = None,
) -> list[int]:
    """Every subset vector whose sum has residue target mod 2^r, or, given
    bounds (lo, hi), lies in [lo, hi); in ascending order.

    table holds the subset sums of the low positions (index bits select
    weights, as lists.subset_sums builds it); each assignment of the
    high_weights positions, with subset sum c, is one chunk: one
    chunk_hits pass over the table as reduce_table leaves it. Hits come out
    as one index array per chunk, with the chunk's high bits OR'd in place
    when they are nonzero. Each chunk charges len(table) ops, and the scan
    ends by charging len(table) + hits cells of memory.
    """
    size = len(table)
    low_bits = size.bit_length() - 1
    reduced = reduce_table(table, r, bounds)
    found: list[int] = []
    for high in range(1 << len(high_weights)):
        idx = chunk_hits(reduced, masked_sum(high_weights, high) if high else 0, r, target, bounds)
        if high:
            idx |= high << low_bits
        found.extend(idx.tolist())
        counter.add(size)
    counter.bump_mem(size + len(found))
    return found


def reduce_table(table: np.ndarray, r: int | None, bounds: tuple[int, int] | None) -> np.ndarray:
    """A subset-sum table reduced in place for chunk_hits, and returned.

    An int64 table keeps every sum in [0, _SUM_CAP) (sums_fit), an int32
    one in [0, 2^31) (table_dtype); bounds are capped at that cap, which
    makes both reductions exact in the table's width:
    - modular (bounds None): residues mod 2^r, the modulus capped because a
      residue beyond the cap is the sum itself;
    - interval: the capped lower bound subtracted, returned as an unsigned
      view so that a sum below lo wraps past every span.
    Differences of interval sums are unchanged by the reduction.
    """
    unsigned, cap = _REDUCED[table.itemsize]
    if bounds is None:
        table &= min(1 << r, cap) - 1
        return table
    reduced = table.view(unsigned)
    reduced -= min(bounds[0], cap)
    return reduced


def chunk_hits(
    reduced: np.ndarray, c: int, r: int | None, target: int, bounds: tuple[int, int] | None
) -> np.ndarray:
    """Indices i, ascending, of a table as reduce_table leaves it whose sum
    plus c meets the equation; one pass over the table. c and the sums it
    is added to stay below the table's cap.

    Modular: the residues are compared with (target - c) mod 2^r, capped at
    the table's cap (a residue that large matches no sum, and neither does
    the cap). Interval: lo <= sum + c < hi is one unsigned comparison of
    reduced + c with hi - lo, both bounds capped; c = 0 skips the add.
    """
    cap = _REDUCED[reduced.itemsize][1]
    if bounds is None:
        hits = reduced == min((target - c) % (1 << r), cap)
    else:
        span = min(bounds[1], cap) - min(bounds[0], cap)
        hits = (reduced + c if c else reduced) < span
    return hits.nonzero()[0]


def _index_list(weights: tuple[int, ...], offset: int) -> PartialSumList:
    sums = subset_sums(weights)
    masks = np.arange(len(sums), dtype=np.int64) << offset
    return PartialSumList(sums, masks)


def solve_mitm(inst: Instance) -> SolutionSet:
    """Exact set via one sorted join of the two position-half lists."""
    check_weight_magnitude(inst.weights)
    counter = OpCounter()
    split = inst.k // 2
    a = _index_list(inst.weights[:split], 0)
    b = _index_list(inst.weights[split:], split)
    counter.bump_mem(len(a) + len(b))
    out = merge_join(a, b, full_constraint(inst), None, counter)
    return SolutionSet(
        frozenset(int(m) for m in out.plus.tolist()),
        op_count=counter.ops,
        mem_peak=counter.mem_peak,
        exhausted=True,
        stats={"solver": "mitm"},
    )


def guess_bits(inst: Instance) -> int:
    """Width of the intermediate value guessed by the four-list merge."""
    t = (inst.k + 3) // 4
    if isinstance(inst, ModularInstance):
        t = min(t, inst.r)
    return max(1, t)


def solve_schroeppel_shamir(inst: Instance) -> SolutionSet:
    """Exact set via four quarter lists and a swept intermediate value.

    For each guess g of the low t bits of the left-half sum, the two left
    quarters are joined under the point constraint g and the two right
    quarters under the complementary constraint, so only O(2^(k/4))-sized
    lists are ever held while the guesses sweep the whole space.
    """
    if inst.k < SS_K_MIN:
        raise GuardError(f"four-list merge needs k >= {SS_K_MIN}")
    check_weight_magnitude(inst.weights)
    counter = OpCounter()
    k = inst.k
    half = k // 2
    q_split = half // 2
    r_split = half + (k - half) // 2
    quarters = [
        _index_list(inst.weights[:q_split], 0),
        _index_list(inst.weights[q_split:half], q_split),
        _index_list(inst.weights[half:r_split], half),
        _index_list(inst.weights[r_split:], r_split),
    ]
    base_mem = sum(len(q) for q in quarters)
    counter.bump_mem(base_mem)

    t = guess_bits(inst)
    mod = 1 << t
    final = full_constraint(inst)
    found: set[int] = set()
    for g in range(mod):
        left = merge_join(quarters[0], quarters[1], WindowConstraint(t, g), None, counter)
        right = merge_join(quarters[2], quarters[3], window_for(inst, t, g), None, counter)
        counter.bump_mem(base_mem + len(left) + len(right))
        out = merge_join(left, right, final, None, counter)
        found.update(int(m) for m in out.plus.tolist())
    return SolutionSet(
        frozenset(found),
        op_count=counter.ops,
        mem_peak=counter.mem_peak,
        exhausted=True,
        stats={"solver": "ss", "guesses": mod},
    )
