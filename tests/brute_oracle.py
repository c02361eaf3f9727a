"""Brute force by full enumeration (test-only): the solution-set oracle.

solve_bruteforce and solve_mitm both take their sets from one join of two
half tables, so checking either against the other checks the join against
itself. This oracle shares no join with them: the low min(k, 18)
positions' subset sums are one table (lists.subset_sums), each assignment
of the high positions is one chunk, and each chunk is one chunk_hits pass
over the table as reduce_table leaves it. combine.brute_run inlines the
same predicate on a row, and the kernel tests check it against these two.
"""

from __future__ import annotations

import numpy as np

from shiftlab.subset_sum.instances import ModularInstance, masked_sum
from shiftlab.subset_sum.lists import subset_sums

# positions expanded into the one table; the rest are enumerated chunk by chunk
CHUNK_BITS = 18
# by table itemsize: the unsigned view of reduced interval sums, and the cap
# below every sum (solvers.table_dtype keeps int32 sums below 2^31,
# solvers.sums_fit int64 sums below 2^62)
_REDUCED = {4: (np.uint32, 1 << 31), 8: (np.uint64, 1 << 62)}


def reduce_table(table: np.ndarray, r: int | None, bounds: tuple[int, int] | None) -> np.ndarray:
    """A subset-sum table reduced in place for chunk_hits, and returned.

    Bounds are capped at the table's cap, which makes both reductions exact
    in the table's width:
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


def brute_solutions(inst) -> frozenset[int]:
    """Every subset vector that solves inst, by testing all 2^k of them."""
    low_bits = min(inst.k, CHUNK_BITS)
    high_weights = inst.weights[low_bits:]
    if isinstance(inst, ModularInstance):
        r, target, bounds = inst.r, inst.target, None
    else:
        r, target, bounds = None, 0, inst.bounds()
    reduced = reduce_table(subset_sums(inst.weights[:low_bits]), r, bounds)
    found: list[int] = []
    for high in range(1 << len(high_weights)):
        idx = chunk_hits(reduced, masked_sum(high_weights, high), r, target, bounds)
        found.extend((idx | (high << low_bits)).tolist())
    return frozenset(found)
