"""Exact solvers: brute force and meet-in-the-middle, both by one join of
the two position halves, and the four-list merge."""

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
    merge_join,
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


def _half_join(inst: Instance) -> tuple[np.ndarray, int, int]:
    """(masks, |a|, |b|): every solution's mask, ascending, from one
    join_pairs of the value-sorted subset-sum lists a and b of the low
    k // 2 and the high positions (Horowitz and Sahni, J. ACM 1974); a
    solution is the low half's index OR'd with the high half's shifted
    past it. Sorting costs a few percent of what it saves: a frozenset of
    2^20 masks builds about twice as fast from ascending ones as from the
    join's order."""
    split = inst.k // 2
    a = _index_list(inst.weights[:split], 0)
    b = _index_list(inst.weights[split:], split)
    a_idx, b_idx = join_pairs(a, b, full_constraint(inst))
    return np.sort(a.plus[a_idx] | b.plus[b_idx]), len(a), len(b)


def solve_bruteforce(inst: Instance) -> SolutionSet:
    """Exact solution set, charged as a scan of all 2^k subset vectors.

    The set comes from the same half-table join as solve_mitm's; the
    charges are brute force's by definition of the method, as formulas:
    2^k ops and 2^min(k, BRUTE_TABLE_BITS) + |J| cells of memory.
    """
    if inst.k > BRUTE_K_CAP:
        raise GuardError(f"k={inst.k} exceeds brute-force cap {BRUTE_K_CAP}")
    check_weight_magnitude(inst.weights)
    masks, _, _ = _half_join(inst)
    return SolutionSet(
        frozenset(masks.tolist()),
        op_count=1 << inst.k,
        mem_peak=(1 << min(inst.k, BRUTE_TABLE_BITS)) + len(masks),
        exhausted=True,
        stats={"solver": "brute"},
    )


def solve_mitm(inst: Instance) -> SolutionSet:
    """Exact set via one sorted join of the two position-half lists,
    charged as the join (lists.charge_join)."""
    check_weight_magnitude(inst.weights)
    counter = OpCounter()
    masks, la, lb = _half_join(inst)
    charge_join(counter, la, lb, len(masks))
    return SolutionSet(
        frozenset(masks.tolist()),
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
