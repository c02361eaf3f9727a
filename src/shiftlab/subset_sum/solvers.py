"""Exact solvers: full enumeration and the two- and four-list merges."""

from __future__ import annotations

import numpy as np

from ..errors import BudgetExceededError, GuardError
from .instances import Instance, ModularInstance, SolutionSet, masked_sum
from .lists import (
    IntervalConstraint,
    OpCounter,
    PartialSumList,
    WindowConstraint,
    merge_join,
    subset_sums,
)

BRUTE_K_CAP = 30
_CHUNK_BITS = 18
# int64 partial sums must not overflow even when k weights stack up.
_SUM_SAFE_BITS = 62
# sums_fit keeps every subset sum in [0, _SUM_CAP), so a nonnegative bound
# capped at _SUM_CAP compares with every sum exactly as the bound itself does
_SUM_CAP = 1 << _SUM_SAFE_BITS


def sums_fit(k: int, top: int) -> bool:
    """Whether every subset sum of k weights in [0, top] fits the int64 bound."""
    return k * top < (1 << _SUM_SAFE_BITS)


def check_weight_magnitude(inst: Instance) -> None:
    if not sums_fit(inst.k, max(inst.weights, default=0)):
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


def _raise_if_over(counter: OpCounter) -> None:
    if counter.over_budget():
        raise BudgetExceededError(
            f"operation budget {counter.budget} exceeded at {counter.ops}"
        )


def solve_bruteforce(inst: Instance, *, budget: int | None = None) -> SolutionSet:
    """Exact solution set by scanning all 2^k subset vectors.

    The operation count is 2^k by definition of the method. Enumeration is
    chunked: the low min(k, _CHUNK_BITS) positions are expanded once into a
    table of subset sums (lists.subset_sums), and each assignment of the
    high-order positions, with subset sum c, is one chunk tested in one pass
    over that table. Every sum lies in [0, _SUM_CAP), which makes both tests
    exact in 64 bits:
    - modular: the table is reduced mod 2^r once, and a chunk compares it
      with (target - c) mod 2^r, capped at _SUM_CAP because a residue at
      r > 62 can exceed every sum;
    - interval: the bounds are capped at _SUM_CAP and the lower one is
      subtracted from the table once, leaving it as uint64; a chunk adds c
      (chunk 0 skips the add) and tests lo <= sum < hi as one unsigned
      comparison with hi - lo.
    Hits come out as one index array per chunk, with the chunk's high bits
    OR'd in place when they are nonzero. The budget is checked after each
    chunk, so BudgetExceededError carries the op count of the first chunk
    that went over.
    """
    if inst.k > BRUTE_K_CAP:
        raise GuardError(f"k={inst.k} exceeds brute-force cap {BRUTE_K_CAP}")
    check_weight_magnitude(inst)
    counter = OpCounter(budget=budget)
    low_bits = min(inst.k, _CHUNK_BITS)
    table = subset_sums(inst.weights[:low_bits])
    size = len(table)
    counter.bump_mem(size)
    high_weights = inst.weights[low_bits:]

    modular = isinstance(inst, ModularInstance)
    if modular:
        mod, target = 1 << inst.r, inst.target
        table &= min(mod, _SUM_CAP) - 1
    else:
        lo, hi = inst.bounds()
        lo, hi = min(lo, _SUM_CAP), min(hi, _SUM_CAP)
        table -= lo
        # sum - lo in uint64: a sum below lo wraps past every span
        table = table.view(np.uint64)
        span = hi - lo

    found: list[int] = []
    for high in range(1 << (inst.k - low_bits)):
        c = masked_sum(high_weights, high) if high else 0
        if modular:
            hits = table == min((target - c) % mod, _SUM_CAP)
        else:
            hits = (table + c if high else table) < span
        idx = hits.nonzero()[0]
        if high:
            idx |= high << low_bits
        found.extend(idx.tolist())
        counter.add(size)
        _raise_if_over(counter)
    counter.bump_mem(size + len(found))
    return SolutionSet(
        frozenset(found),
        op_count=counter.ops,
        mem_peak=counter.mem_peak,
        exhausted=True,
        stats={"solver": "brute"},
    )


def _index_list(weights: tuple[int, ...], offset: int) -> PartialSumList:
    sums = subset_sums(weights)
    masks = np.arange(len(sums), dtype=np.int64) << offset
    return PartialSumList(sums, masks)


def solve_mitm(inst: Instance, *, budget: int | None = None) -> SolutionSet:
    """Exact set via one sorted join of the two position-half lists."""
    check_weight_magnitude(inst)
    counter = OpCounter(budget=budget)
    split = inst.k // 2
    a = _index_list(inst.weights[:split], 0)
    b = _index_list(inst.weights[split:], split)
    counter.bump_mem(len(a) + len(b))
    out = merge_join(a, b, full_constraint(inst), None, counter)
    _raise_if_over(counter)
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


def solve_schroeppel_shamir(inst: Instance, *, budget: int | None = None) -> SolutionSet:
    """Exact set via four quarter lists and a swept intermediate value.

    For each guess g of the low t bits of the left-half sum, the two left
    quarters are joined under the point constraint g and the two right
    quarters under the complementary constraint, so only O(2^(k/4))-sized
    lists are ever held while the guesses sweep the whole space.
    """
    if inst.k < 4:
        raise GuardError("four-list merge needs k >= 4")
    check_weight_magnitude(inst)
    counter = OpCounter(budget=budget)
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
        _raise_if_over(counter)
    return SolutionSet(
        frozenset(found),
        op_count=counter.ops,
        mem_peak=counter.mem_peak,
        exhausted=True,
        stats={"solver": "ss", "guesses": mod},
    )
