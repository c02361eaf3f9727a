"""Subset-sum instance types and the solver suite.

Instances come in two flavors matching the two combination routines:
modular (x.w == V mod 2^r) and interval (floor(x.w * 2^(r-1) / B) == V).
Solvers, all run through solve: exhaustive enumeration, two-list
meet-in-the-middle, four-list guess-and-meet with low-order modular
guessing, the ternary-digit representation solver with
repetition-to-fixed-point, and memoryless collision finding. The exact
three return the full solution set, rep and memless what their seeded
rounds found before one stopping rule (solvers.seeded_rounds) ended them;
all count operations and memory.
"""

from .instances import (
    IntervalInstance,
    ModularInstance,
    SolutionSet,
    random_instance,
)
from .lists import IntervalConstraint, OpCounter, PartialSumList, WindowConstraint, merge_join
from .solvers import solve_bruteforce, solve_mitm, solve_schroeppel_shamir
from .representation import solve_representation
from .memoryless import solve_memoryless
from .dispatch import solve

__all__ = [
    "IntervalConstraint",
    "IntervalInstance",
    "ModularInstance",
    "OpCounter",
    "PartialSumList",
    "SolutionSet",
    "WindowConstraint",
    "merge_join",
    "random_instance",
    "solve",
    "solve_bruteforce",
    "solve_memoryless",
    "solve_mitm",
    "solve_representation",
    "solve_schroeppel_shamir",
]
