"""The four-list merge guess by guess (test-only): the oracle for
solve_schroeppel_shamir.

solve_schroeppel_shamir takes its set from the same half-table join as
solve_bruteforce and solve_mitm and charges the four-list merge from
per-guess counts. This oracle runs the merge itself: for each guess g of
the low t bits of the left-half sum, the two left quarters are joined under
the point constraint g and the two right quarters under the complementary
window, and the two results are joined under the instance's constraint,
three merge_join calls per guess. Its set, op count, memory peak and stats
are what the solver must report.
"""

from __future__ import annotations

import numpy as np

from shiftlab.errors import GuardError
from shiftlab.subset_sum.instances import Instance, SolutionSet
from shiftlab.subset_sum.lists import OpCounter, WindowConstraint, merge_join
from shiftlab.subset_sum.solvers import (
    SS_K_MIN,
    _index_list,
    check_weight_magnitude,
    full_constraint,
    guess_bits,
    window_for,
)


def ss_solutions(inst: Instance) -> SolutionSet:
    """Exact set via four quarter lists and a swept intermediate value."""
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
        np.array(sorted(found), dtype=np.int64),
        op_count=counter.ops,
        mem_peak=counter.mem_peak,
        exhausted=True,
        stats={"solver": "ss", "guesses": mod},
    )
