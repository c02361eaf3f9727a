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
is a solution. Interval targets compare sums truncated to 2^rho blocks with
rho chosen so the window fits half a block; straddling pairs are caught by a
second pass offset by half a block, and spurious block matches are filtered
by evaluating the true sum.

Walk lanes are vectorized; each lane is an independent repetition with its
own derived seed, so memory per repetition stays O(k) and results match a
sequential run of the same seeds.
"""

from __future__ import annotations

import numpy as np

from ..errors import GuardError
from ..group_arith import ceil_div, ceil_log2
from ..kinds import MEMLESS, SOLVER_WIDTHS
from ..seeds import derive
from .instances import Instance, ModularInstance, SolutionSet
from .lists import OpCounter, subset_sums
from .solvers import check_weight_magnitude, expected_solutions, seeded_result, seeded_rounds

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_WALK_TAG = 0x5C
MEMLESS_K_MIN = SOLVER_WIDTHS[MEMLESS][0]
MEMLESS_MAX_ROUNDS = 4096


def _mix64(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
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
    """Per-instance constants and the vectorized walk step."""

    def __init__(self, inst: Instance):
        k = inst.k
        self.hl = (k + 1) // 2
        self.d = self.hl
        self.domain = np.uint64(1 << (self.d + 1))
        self.dmask = np.uint64((1 << self.d) - 1)
        self.hr_mask = np.int64((1 << (k - self.hl)) - 1)
        self.tl = subset_sums(inst.weights[: self.hl])
        self.tr = subset_sums(inst.weights[self.hl :])
        if isinstance(inst, ModularInstance):
            self.modular = True
            self.mod = np.int64(1 << inst.r)
            self.target = np.int64(inst.target)
        else:
            self.modular = False
            lo, hi = inst.bounds()
            self.lo = lo
            width = hi - lo
            self.rho = 1 if width <= 1 else ceil_log2(width) + 1
            self.half_block = 1 << (self.rho - 1)
            top = k * max(inst.weights, default=0)
            self.shift = ((top >> self.rho) + 1) << self.rho

    def step(self, z: np.ndarray, lane_mix: np.ndarray, off: np.ndarray) -> np.ndarray:
        masks = (z & self.dmask).astype(np.int64)
        side0 = (z >> np.uint64(self.d)) == 0
        s_left, s_right = self.tl[masks], self.tr[masks & self.hr_mask]
        if self.modular:
            key_l = (self.target - s_left) % self.mod
            key_r = s_right % self.mod
        else:
            key_l = (self.shift + self.lo - s_left + off) >> self.rho
            key_r = (self.shift + s_right + off) >> self.rho
        key = np.where(side0, key_l, key_r).astype(np.uint64)
        return _mix64(key ^ lane_mix) % self.domain

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


def _advance(space, z, active, lane_mix, off):
    n_active = int(active.sum())
    if n_active == 0:
        return z
    if n_active * 4 < len(z):
        out = z.copy()
        out[active] = space.step(z[active], lane_mix[active], off[active])
        return out
    return np.where(active, space.step(z, lane_mix, off), z)


def solve_memoryless(inst: Instance, *, seed: int = 0) -> SolutionSet:
    """Solutions found by rounds of vectorized cycle walks, seeded by
    derive(seed, _WALK_TAG, round). Each round walks `lanes` lanes, so
    repetition_budget(inst) walks cap solvers.seeded_rounds at
    ceil(budget / lanes) rounds, and MEMLESS_MAX_ROUNDS caps it too; the
    stats report that budget as walk_budget.
    """
    if inst.k < MEMLESS_K_MIN:
        raise GuardError(f"memoryless solver needs k >= {MEMLESS_K_MIN}")
    check_weight_magnitude(inst.weights)
    counter = OpCounter()
    space = _WalkSpace(inst)
    k = inst.k
    expected = expected_solutions(inst)
    walks_cap = repetition_budget(inst)
    # Interval block matching admits false positives (several blocks per
    # window), so a fixed-point round needs proportionally more repetitions
    # to carry the same evidence of completeness. The floor keeps rounds
    # meaningful when solutions are rare but each draw is a long shot.
    scale = 4 if space.modular else 32
    lanes = int(min(8192, max(512, scale * expected)))
    step_cap = 24 * int(float(space.domain) ** 0.5) + 64
    # interval lanes alternate between the two block offsets
    off = np.zeros(lanes, dtype=np.int64)
    if not space.modular:
        off[1::2] = space.half_block

    def run_round(i: int) -> set[int]:
        lane_seed = np.uint64(derive(seed, _WALK_TAG, i) & (2**64 - 1))
        lane_mix = _mix64(np.arange(lanes, dtype=np.uint64) ^ lane_seed)
        z0 = _mix64(lane_mix ^ _GOLDEN) % space.domain

        # Brent phase: cycle length per lane.
        tortoise = z0.copy()
        hare = space.step(z0, lane_mix, off)
        power = np.ones(lanes, dtype=np.int64)
        lam = np.ones(lanes, dtype=np.int64)
        alive = np.ones(lanes, dtype=bool)
        steps = lanes
        for _ in range(step_cap):
            active = alive & (tortoise != hare)
            if not bool(active.any()):
                break
            reset = active & (power == lam)
            tortoise[reset] = hare[reset]
            power[reset] <<= 1
            lam[reset] = 0
            hare = _advance(space, hare, active, lane_mix, off)
            lam[active] += 1
            steps += int(active.sum())
        else:
            alive &= tortoise == hare
        counter.add(steps * k)

        # Position hare lam steps ahead of the start, then walk to the meeting
        # point keeping predecessors: those are the colliding pair.
        tortoise = z0.copy()
        hare = z0.copy()
        rem = np.where(alive, lam, 0)
        steps = 0
        while bool((rem > 0).any()):
            active = rem > 0
            hare = _advance(space, hare, active, lane_mix, off)
            rem[active] -= 1
            steps += int(active.sum())
        has_pair = alive & (tortoise != hare)
        pu = tortoise.copy()
        pv = hare.copy()
        for _ in range(step_cap):
            active = alive & (tortoise != hare)
            if not bool(active.any()):
                break
            pu[active] = tortoise[active]
            pv[active] = hare[active]
            tortoise = _advance(space, tortoise, active, lane_mix, off)
            hare = _advance(space, hare, active, lane_mix, off)
            steps += 2 * int(active.sum())
        else:
            has_pair &= tortoise == hare
        counter.add(steps * k)

        masks = space.cross_masks(pu[has_pair], pv[has_pair])
        counter.add(len(masks) * k)
        return {mask for mask in masks if inst.check(mask)}

    found: set[int] = set()
    max_rounds = min(MEMLESS_MAX_ROUNDS, ceil_div(walks_cap, lanes))
    rounds, stable = seeded_rounds(found, run_round, max_rounds)
    counter.bump_mem(8 * k)
    return seeded_result(
        found, counter, solver="memless", rounds=rounds, walks=rounds * lanes,
        walk_budget=walks_cap, stable=stable, lanes=lanes,
    )
