"""Solver that writes {0,1} solutions as sums of overlapping {-1,0,1} vectors.

A weight-w solution x splits as x = x1 + x2 where x1 carries ceil(w/2) of the
ones plus M extra +1/-1 cancelling pairs and x2 carries the rest; the many
ways of choosing the split mean a random low-bit constraint on x1's partial
sum keeps some representation of x alive with constant probability. Each
round draws fresh constraints, builds the candidate lists per weight class,
merges them with digit-consistency filtering, and the round loop stops once
the found set has been stable for three consecutive rounds (or after
REP_MAX_ROUNDS). The split is one level deep: x1 and x2 each come from one
join of two position halves, and DEFAULT_MINUS_FRACTION * k sets M.

Dense instances (many expected solutions) gain nothing from representations;
for those the solver runs the plain position split of the two-list merge,
which is exact.
"""

from __future__ import annotations

import random
from dataclasses import replace
from functools import lru_cache

import numpy as np

from ..errors import GuardError
from ..kinds import REP, SOLVER_WIDTHS
from ..seeds import derive
from .instances import Instance, SolutionSet
from .lists import (
    CONSISTENCY_BINARY,
    OpCounter,
    PartialSumList,
    WindowConstraint,
    merge_join,
    subset_sums,
)
from .solvers import (
    check_weight_magnitude,
    expected_solutions,
    full_constraint,
    solve_mitm,
    window_for,
)

REP_K_MIN = SOLVER_WIDTHS[REP][0]
DENSE_SOLUTION_CAP = 64
DEFAULT_MINUS_FRACTION = 1.0 / 16.0
REP_MAX_ROUNDS = 64
_ROUND_TAG = 0x9E


@lru_cache(maxsize=None)
def _combo_masks(n: int, t: int) -> tuple[int, ...]:
    """All t-subsets of [0, n) as bitmasks, ascending (Gosper's hack)."""
    if t < 0 or t > n:
        return ()
    if t == 0:
        return (0,)
    out = []
    mask = (1 << t) - 1
    top = 1 << n
    while mask < top:
        out.append(mask)
        low = mask & -mask
        ripple = mask + low
        mask = ripple | (((mask ^ ripple) >> 2) // low)
    return tuple(out)


class _HalfEnumerator:
    """Cached ternary enumerations of one position half, grouped by profile."""

    def __init__(self, weights: tuple[int, ...], offset: int):
        self.sums = subset_sums(weights)
        self.offset = offset
        self.n = len(weights)
        self._cache: dict[tuple[int, int], PartialSumList] = {}
        self.cells = 0

    def profile(self, p: int, m: int) -> PartialSumList:
        key = (p, m)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        empty = np.empty(0, dtype=np.int64)
        if p < 0 or m < 0 or p + m > self.n:
            lst = PartialSumList(empty, empty, empty)
        else:
            plus = np.asarray(_combo_masks(self.n, p), dtype=np.int64)
            minus = np.asarray(_combo_masks(self.n, m), dtype=np.int64)
            pr = np.repeat(plus, len(minus))
            mr = np.tile(minus, len(plus))
            keep = (pr & mr) == 0
            pr, mr = pr[keep], mr[keep]
            values = self.sums[pr] - self.sums[mr]
            lst = PartialSumList(values, pr << self.offset, mr << self.offset)
        self._cache[key] = lst
        self.cells += len(lst)
        return lst


def _build_profile_list(
    left: _HalfEnumerator,
    right: _HalfEnumerator,
    p: int,
    m: int,
    constraint: WindowConstraint,
    counter: OpCounter,
) -> PartialSumList:
    """All ternary vectors with p plus and m minus digits meeting the constraint."""
    chunks_v, chunks_p, chunks_m = [], [], []
    for pl in range(max(0, p - right.n), min(p, left.n) + 1):
        for ml in range(max(0, m - (right.n - (p - pl))), min(m, left.n - pl) + 1):
            a = left.profile(pl, ml)
            b = right.profile(p - pl, m - ml)
            if len(a) == 0 or len(b) == 0:
                continue
            joined = merge_join(a, b, constraint, None, counter)
            if len(joined):
                chunks_v.append(joined.values)
                chunks_p.append(joined.plus)
                chunks_m.append(joined.minus)
    if not chunks_v:
        e = np.empty(0, dtype=np.int64)
        return PartialSumList(e, e, e)
    return PartialSumList(
        np.concatenate(chunks_v), np.concatenate(chunks_p), np.concatenate(chunks_m)
    )


def _near_trivial_hits(inst: Instance, counter: OpCounter) -> set[int]:
    """Weight 0, 1, k-1, k vectors checked directly (too few representations)."""
    k = inst.k
    full = (1 << k) - 1
    candidates = [0, full]
    candidates += [1 << i for i in range(k)]
    candidates += [full ^ (1 << i) for i in range(k)]
    counter.add(len(candidates))
    return {mask for mask in candidates if inst.check(mask)}


def solve_representation(inst: Instance, *, seed: int = 0) -> SolutionSet:
    """All solutions found by rounds of representation joins, seeded by
    derive(seed, _ROUND_TAG, round); see the module docstring for the
    configuration. The stats record it as depth 2 and DEFAULT_MINUS_FRACTION.
    """
    if inst.k < REP_K_MIN:
        raise GuardError(f"representation solver needs k >= {REP_K_MIN}")
    check_weight_magnitude(inst.weights)
    if expected_solutions(inst) > DENSE_SOLUTION_CAP:
        sol = solve_mitm(inst)
        return replace(sol, stats={"solver": "rep", "mode": "degenerate", "rounds": 0})

    counter = OpCounter()
    k = inst.k
    h = k // 2
    left = _HalfEnumerator(inst.weights[:h], 0)
    right = _HalfEnumerator(inst.weights[h:], h)
    final = full_constraint(inst)
    m_pairs = max(1, round(DEFAULT_MINUS_FRACTION * k))
    t1 = max(1, inst.r // 2)

    def run_round(rnd) -> set[int]:
        hits: set[int] = set()
        for w in range(2, k - 1):
            m_w = min(m_pairs, (k - w) // 2)
            p1, m1 = (w + 1) // 2 + m_w, m_w
            p2, m2 = w // 2 + m_w, m_w
            c1 = rnd.randrange(1 << t1)
            l1 = _build_profile_list(left, right, p1, m1, WindowConstraint(t1, c1), counter)
            l2 = _build_profile_list(left, right, p2, m2, window_for(inst, t1, c1), counter)
            out = merge_join(l1, l2, final, CONSISTENCY_BINARY, counter)
            hits.update(int(x) for x in out.plus.tolist())
            counter.bump_mem(left.cells + right.cells + len(l1) + len(l2) + len(out))
        return hits

    found = _near_trivial_hits(inst, counter)
    stable = 0
    rounds = 0
    while stable < 3 and rounds < REP_MAX_ROUNDS:
        rnd = random.Random(derive(seed, _ROUND_TAG, rounds))
        before = len(found)
        found |= run_round(rnd)
        rounds += 1
        stable = stable + 1 if len(found) == before else 0

    return SolutionSet(
        np.array(sorted(found), dtype=np.int64),
        op_count=counter.ops,
        mem_peak=counter.mem_peak,
        exhausted=False,
        stats={
            "solver": "rep",
            "mode": "ternary",
            "rounds": rounds,
            "stable": stable >= 3,
            "depth": 2,
            "minus_fraction": DEFAULT_MINUS_FRACTION,
        },
    )
