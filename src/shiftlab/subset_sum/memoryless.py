"""Collision-search solver holding only O(k) cells per repetition.

The two position halves induce two maps into a shared key space: the left
map sends a left mask to the key that a matching right sum would have, the
right map sends a right mask to its own key. A seeded mixing step turns key
equality into collisions of a random walk on a domain of 2^(d+1) points
(top bit = side, low bits = mask), found by Brent cycle detection. Cross-side
collisions are checked against the instance equation; same-side ones are
discarded. Rounds of repetitions with fresh walk seeds run under
solvers.seeded_rounds, capped by the repetition_budget and by
MEMLESS_MAX_ROUNDS.

Modular targets compare full low-r residues, so every cross-side key match
is a solution; past r = 62, where every sum is below 2^62, keys compare
residues mod 2^62 and the instance equation filters the matches. Interval
targets compare sums truncated to 2^rho blocks with rho chosen so the window
fits half a block; straddling pairs are caught by a second pass offset by
half a block, and spurious block matches are filtered by evaluating the true
sum.

Walk lanes are vectorized; each lane is an independent repetition with its
own derived seed, so memory per repetition stays O(k). The rounds that the
stopping rule will run anyway are walked as one vector of lanes, and the
results do not change: they match a sequential run of the same seeds, one
lane and one round at a time.
"""

from __future__ import annotations

import numpy as np

from ..errors import GuardError
from ..group_arith import ceil_div, ceil_log2
from ..kinds import MEMLESS, SOLVER_WIDTHS
from ..seeds import derive
from .instances import Instance, ModularInstance, SolutionSet
from .lists import OpCounter, subset_sums
from .solvers import (
    _SUM_CAP,
    _SUM_SAFE_BITS,
    check_weight_magnitude,
    expected_solutions,
    seeded_result,
    seeded_rounds,
)

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_WALK_TAG = 0x5C
MEMLESS_K_MIN = SOLVER_WIDTHS[MEMLESS][0]
MEMLESS_MAX_ROUNDS = 4096


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer on a uint64 array (numpy wraps array integer
    arithmetic mod 2^64 without warning)."""
    x = x + _GOLDEN
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


def repetition_budget(inst: Instance) -> int:
    """Walk budget: 8 * (expected solutions + 1) * domain^(3/2).

    A specific colliding pair is harvested by a random-start cycle walk with
    probability about 1/domain^(3/2) (the pair must sit exactly at the tail
    to cycle junction, and one side must lie on the cycle), so this budget
    gives each solution an expected handful of draws.
    """
    domain = 1 << ((inst.k + 1) // 2 + 1)
    return 8 * (expected_solutions(inst) + 1) * int(float(domain) ** 1.5)


class _WalkSpace:
    """Per-instance constants, the lane layout of a round and the
    vectorized walk step.

    A walk point's key is a table lookup, keys[z | base]: the table holds
    the key of every point of the domain, once per block offset, and a
    lane's base (0, or domain for the second offset) picks its copy.
    """

    def __init__(self, inst: Instance):
        k = inst.k
        self.hl = (k + 1) // 2
        self.d = self.hl
        self.domain = 1 << (self.d + 1)
        self.dmask_full = np.uint64(self.domain - 1)
        self.dmask = np.uint64((1 << self.d) - 1)
        self.hr_mask = np.int64((1 << (k - self.hl)) - 1)
        z = np.arange(self.domain, dtype=np.uint64)
        masks = (z & self.dmask).astype(np.int64)
        side0 = (z >> np.uint64(self.d)) == 0
        s_left = subset_sums(inst.weights[: self.hl])[masks]
        s_right = subset_sums(inst.weights[self.hl :])[masks & self.hr_mask]
        modular = isinstance(inst, ModularInstance)
        if modular:
            # every sum is below 2^_SUM_SAFE_BITS, so past that width keys
            # compare residues mod 2^_SUM_SAFE_BITS; inst.check drops the
            # matches that are not solutions
            key_mask = (1 << min(inst.r, _SUM_SAFE_BITS)) - 1
            target = inst.target & key_mask
            keys = [np.where(side0, (target - s_left) & key_mask, s_right & key_mask)]
        else:
            # no sum reaches _SUM_CAP, so capping the bounds there (as
            # full_constraint does) changes no match; with rho <= 62 too, shift
            # and every key stay below 2^63 and the sums before >> rho below 2^64
            lo, hi = (min(b, _SUM_CAP) for b in inst.bounds())
            width = hi - lo
            rho = 1 if width <= 1 else min(ceil_log2(width) + 1, _SUM_SAFE_BITS)
            top = k * max(inst.weights, default=0)
            shift = ((top >> rho) + 1) << rho
            u_left, u_right = s_left.astype(np.uint64), s_right.astype(np.uint64)
            keys = [
                np.where(side0, np.uint64(shift + lo + off) - u_left, u_right + np.uint64(shift + off))
                >> np.uint64(rho)
                for off in (0, 1 << (rho - 1))
            ]
        self.keys = np.concatenate(keys).astype(np.uint64)

        # Interval block matching admits false positives (several blocks per
        # window), so a fixed-point round needs proportionally more
        # repetitions to carry the same evidence of completeness. The floor
        # keeps rounds meaningful when solutions are rare but each draw is a
        # long shot.
        scale = 4 if modular else 32
        self.lanes = int(min(8192, max(512, scale * expected_solutions(inst))))
        self.step_cap = 24 * int(float(self.domain) ** 0.5) + 64
        # interval lanes alternate between the two block offsets
        self.round_base = np.zeros(self.lanes, dtype=np.uint64)
        if not modular:
            self.round_base[1::2] = self.domain

    def step(self, z: np.ndarray, lane_mix: np.ndarray, base: np.ndarray) -> np.ndarray:
        return _mix64(self.keys[z | base] ^ lane_mix) & self.dmask_full

    def cross_masks(self, pu: np.ndarray, pv: np.ndarray) -> list[int]:
        su = pu >> np.uint64(self.d)
        sv = pv >> np.uint64(self.d)
        cross = su != sv
        if not bool(cross.any()):
            return []
        a_side = np.where(su == 0, pu, pv)[cross]
        b_side = np.where(su == 0, pv, pu)[cross]
        a = (a_side & self.dmask).astype(np.int64)
        b = (b_side & self.dmask).astype(np.int64) & self.hr_mask
        full = a | (b << self.hl)
        return [int(m) for m in full.tolist()]


def _advance(space, z, active, n_active, lane_mix, base):
    """z with its n_active (> 0) active lanes stepped once."""
    if n_active * 4 < len(z):
        out = z.copy()
        out[active] = space.step(z[active], lane_mix[active], base[active])
        return out
    return np.where(active, space.step(z, lane_mix, base), z)


def _walk_rounds(
    inst: Instance, space: _WalkSpace, seed: int, first: int, count: int, counter: OpCounter
) -> list[set[int]]:
    """The solutions found by rounds first, ..., first + count - 1, one set
    per round, walked as one vector of count * space.lanes lanes; round
    i's lanes are seeded by derive(seed, _WALK_TAG, i). A lane's walk
    depends only on its own seed and base, and once a lane stops it stays
    stopped (the step-cap branches change nothing on such a lane), so the
    finds and the charge to counter are those of walking each round alone.
    """
    k, lanes, step_cap = inst.k, space.lanes, space.step_cap
    seeds = [derive(seed, _WALK_TAG, i) & (2**64 - 1) for i in range(first, first + count)]
    lane_seed = np.repeat(np.array(seeds, dtype=np.uint64), lanes)
    lane_mix = _mix64(np.tile(np.arange(lanes, dtype=np.uint64), count) ^ lane_seed)
    base = np.tile(space.round_base, count)
    z0 = _mix64(lane_mix ^ _GOLDEN) & space.dmask_full
    n = len(z0)

    # Brent phase: cycle length per lane.
    tortoise = z0.copy()
    hare = space.step(z0, lane_mix, base)
    power = np.ones(n, dtype=np.int64)
    lam = np.ones(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    steps = n
    for _ in range(step_cap):
        active = alive & (tortoise != hare)
        n_active = int(np.count_nonzero(active))
        if n_active == 0:
            break
        reset = active & (power == lam)
        tortoise[reset] = hare[reset]
        power[reset] <<= 1
        lam[reset] = 0
        hare = _advance(space, hare, active, n_active, lane_mix, base)
        lam += active
        steps += n_active
    else:
        alive &= tortoise == hare
    counter.add(steps * k)

    # Position hare lam steps ahead of the start, then walk to the meeting
    # point keeping predecessors: those are the colliding pair.
    tortoise = z0.copy()
    hare = z0.copy()
    rem = np.where(alive, lam, 0)
    steps = 0
    while True:
        active = rem > 0
        n_active = int(np.count_nonzero(active))
        if n_active == 0:
            break
        hare = _advance(space, hare, active, n_active, lane_mix, base)
        rem -= active
        steps += n_active
    has_pair = alive & (tortoise != hare)
    pu = tortoise.copy()
    pv = hare.copy()
    for _ in range(step_cap):
        active = alive & (tortoise != hare)
        n_active = int(np.count_nonzero(active))
        if n_active == 0:
            break
        pu[active] = tortoise[active]
        pv[active] = hare[active]
        tortoise = _advance(space, tortoise, active, n_active, lane_mix, base)
        hare = _advance(space, hare, active, n_active, lane_mix, base)
        steps += 2 * n_active
    else:
        has_pair &= tortoise == hare
    counter.add(steps * k)

    finds = []
    for lo in range(0, n, lanes):
        pair = has_pair[lo : lo + lanes]
        masks = space.cross_masks(pu[lo : lo + lanes][pair], pv[lo : lo + lanes][pair])
        counter.add(len(masks) * k)
        finds.append({mask for mask in masks if inst.check(mask)})
    return finds


def solve_memoryless(inst: Instance, *, seed: int = 0) -> SolutionSet:
    """Solutions found by rounds of vectorized cycle walks, seeded by
    derive(seed, _WALK_TAG, round). Each round walks `lanes` lanes, so
    repetition_budget(inst) walks cap solvers.seeded_rounds at
    ceil(budget / lanes) rounds, and MEMLESS_MAX_ROUNDS caps it too; the
    stats report that budget as walk_budget. The rounds that seeded_rounds
    asks for at once, which its stopping rule will run anyway, are walked
    as one vector (_walk_rounds); the results are those of walking them one
    round at a time.
    """
    if inst.k < MEMLESS_K_MIN:
        raise GuardError(f"memoryless solver needs k >= {MEMLESS_K_MIN}")
    check_weight_magnitude(inst.weights)
    counter = OpCounter()
    space = _WalkSpace(inst)
    walks_cap = repetition_budget(inst)
    found: set[int] = set()
    max_rounds = min(MEMLESS_MAX_ROUNDS, ceil_div(walks_cap, space.lanes))
    rounds, stable = seeded_rounds(
        found, lambda first, count: _walk_rounds(inst, space, seed, first, count, counter), max_rounds
    )
    counter.bump_mem(8 * inst.k)
    return seeded_result(
        found, counter, solver="memless", rounds=rounds, walks=rounds * space.lanes,
        walk_budget=walks_cap, stable=stable, lanes=space.lanes,
    )
