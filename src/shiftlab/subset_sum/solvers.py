"""Exact solvers: brute force, meet-in-the-middle and the four-list merge, all
by one join of the two position halves, each charged as the method it models."""

from __future__ import annotations

import numpy as np

from ..errors import GuardError
from ..kinds import BRUTE, SOLVER_WIDTHS, SS
from .instances import Instance, ModularInstance, SolutionSet
from .lists import (
    IntervalConstraint,
    OpCounter,
    PartialSumList,
    WindowConstraint,
    charge_join,
    join_pairs,
    subset_sums,
)

BRUTE_K_CAP = SOLVER_WIDTHS[BRUTE][1]
SS_K_MIN = SOLVER_WIDTHS[SS][0]
# brute force's modeled memory charge: a table of the subset sums of at most
# this many positions, plus the solution set, 2^min(k, 18) + |J| cells
# (ROADMAP item 9 replaces this charge)
BRUTE_TABLE_BITS = 18
# int64 partial sums must not overflow even when k weights stack up.
_SUM_SAFE_BITS = 62
# sums_fit keeps every subset sum in [0, _SUM_CAP), so a nonnegative bound
# capped at _SUM_CAP compares with every sum exactly as the bound itself does
_SUM_CAP = 1 << _SUM_SAFE_BITS
# table_dtype's int32 tables keep every sum in [0, 2^31) the same way
_INT32_BITS = 31
# by table itemsize: the unsigned view that combine.brute_run reduces
# interval sums in, and the cap below every sum
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
    arithmetic in join_pairs below 2^63.
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


def _index_list(weights: tuple[int, ...], offset: int) -> PartialSumList:
    sums = subset_sums(weights)
    masks = np.arange(len(sums), dtype=np.int64) << offset
    return PartialSumList(sums, masks)


def _half_join(inst: Instance) -> tuple[np.ndarray, PartialSumList, PartialSumList]:
    """(masks, a, b): every solution's mask, ascending, from one
    join_pairs of the value-sorted subset-sum lists a and b of the low
    k // 2 and the high positions (Horowitz and Sahni, J. ACM 1974); a
    solution is the low half's index OR'd with the high half's shifted
    past it. The sort puts the masks in SolutionSet order, the ascending
    support that the combination's projection walks."""
    split = inst.k // 2
    a = _index_list(inst.weights[:split], 0)
    b = _index_list(inst.weights[split:], split)
    a_idx, b_idx = join_pairs(a, b, full_constraint(inst))
    return np.sort(a.plus[a_idx] | b.plus[b_idx]), a, b


def _exact(masks: np.ndarray, ops: int, mem_peak: int, **stats) -> SolutionSet:
    """An exact solver's result: every solution's mask, and its charges."""
    return SolutionSet(masks, ops, mem_peak, exhausted=True, stats=stats)


def solve_bruteforce(inst: Instance) -> SolutionSet:
    """Exact solution set, charged as a scan of all 2^k subset vectors.

    The set comes from the same half-table join as solve_mitm's; the
    charges are brute force's by definition of the method, as formulas:
    2^k ops and 2^min(k, BRUTE_TABLE_BITS) + |J| cells of memory.
    """
    if inst.k > BRUTE_K_CAP:
        raise GuardError(f"k={inst.k} exceeds brute-force cap {BRUTE_K_CAP}")
    check_weight_magnitude(inst.weights)
    masks = _half_join(inst)[0]
    table = 1 << min(inst.k, BRUTE_TABLE_BITS)
    return _exact(masks, 1 << inst.k, table + len(masks), solver="brute")


def solve_mitm(inst: Instance) -> SolutionSet:
    """Exact set via one sorted join of the two position-half lists,
    charged as the join (lists.charge_join)."""
    check_weight_magnitude(inst.weights)
    counter = OpCounter()
    masks, a, b = _half_join(inst)
    charge_join(counter, len(a), len(b), len(masks))
    return _exact(masks, counter.ops, counter.mem_peak, solver="mitm")


def guess_bits(inst: Instance) -> int:
    """Width of the intermediate value guessed by the four-list merge."""
    t = (inst.k + 3) // 4
    if isinstance(inst, ModularInstance):
        t = min(t, inst.r)
    return max(1, t)


def solve_schroeppel_shamir(inst: Instance) -> SolutionSet:
    """Exact set, charged as the four-list merge (Schroeppel and Shamir,
    SIAM J. Comput. 1981): per guess g of the low t bits of the left-half
    sum, it joins the left quarters under g into L_g, the right quarters
    under window_for(inst, t, g) into R_g, and L_g with R_g into the
    solutions O_g, holding only O(2^(k/4))-sized lists.

    The set comes from solve_mitm's join, which splits at k // 2 as the
    merge does, and each guess is charged from |L_g|, |R_g| and |O_g|
    counted on the two halves: a solution's low half fixes its g, and its
    high half lies in R_g. As with brute force, the simulator holds 2^(k/2)
    entries per half while the memory charged stays the model's 2^(k/4).
    """
    if inst.k < SS_K_MIN:
        raise GuardError(f"four-list merge needs k >= {SS_K_MIN}")
    check_weight_magnitude(inst.weights)
    masks, a, b = _half_join(inst)
    t = guess_bits(inst)
    mod = 1 << t
    keys = np.int64(mod - 1)
    low = np.empty_like(a.values)
    low[a.plus] = a.values & keys  # low-half residues by mask
    low_count = np.bincount(low, minlength=mod)
    hits = np.bincount(low[masks & (len(a) - 1)], minlength=mod)
    # g's window starts g below guess 0's, cyclically, with the same count;
    # cum[i] counts the high half's residues below i on two laps of [0, 2^t)
    window = window_for(inst, t, 0)
    start = (window.residue - np.arange(mod)) & (mod - 1)
    cum = np.concatenate(([0], np.cumsum(np.tile(np.bincount(b.values & keys, minlength=mod), 2))))
    high_count = cum[start + window.count] - cum[start]

    k, half = inst.k, inst.k // 2
    q_split, r_split = half // 2, half + (k - half) // 2
    q0, q1, q2, q3 = (1 << n for n in (q_split, half - q_split, r_split - half, k - r_split))
    counter = OpCounter()
    counter.bump_mem(q0 + q1 + q2 + q3)
    for lg, rg, og in zip(low_count.tolist(), high_count.tolist(), hits.tolist()):
        charge_join(counter, q0, q1, lg)
        charge_join(counter, q2, q3, rg)
        counter.bump_mem(q0 + q1 + q2 + q3 + lg + rg)
        charge_join(counter, lg, rg, og)
    return _exact(masks, counter.ops, counter.mem_peak, solver="ss", guesses=mod)
