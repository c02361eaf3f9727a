"""Single entry point routing an instance to a solver by identifier."""

from __future__ import annotations

from ..errors import UsageError
from ..kinds import BRUTE, MEMLESS, MITM, REP, SOLVERS, SS
from .instances import Instance, SolutionSet
from .memoryless import solve_memoryless
from .representation import solve_representation
from .solvers import solve_bruteforce, solve_mitm, solve_schroeppel_shamir


def solve(inst: Instance, solver_id: str = BRUTE, *, seed: int = 0) -> SolutionSet:
    """Run the named solver; an instance with no solution gives the empty set.

    Deterministic solvers ignore `seed`; probabilistic ones derive all their
    round and lane seeds from it. Each solver runs its one configuration:
    rep with DEFAULT_MINUS_FRACTION and REP_MAX_ROUNDS, memless with its
    repetition_budget and MEMLESS_MAX_ROUNDS.
    """
    if solver_id == BRUTE:
        return solve_bruteforce(inst)
    if solver_id == MITM:
        return solve_mitm(inst)
    if solver_id == SS:
        return solve_schroeppel_shamir(inst)
    if solver_id == REP:
        return solve_representation(inst, seed=seed)
    if solver_id == MEMLESS:
        return solve_memoryless(inst, seed=seed)
    raise UsageError(f"unknown solver {solver_id!r}; expected one of {SOLVERS}")
