"""Combination and projection of phase elements, simulated at label level.

A combination step takes k unmeasured elements, measures the ancilla register
that holds a compressed subset sum of their labels, solves the resulting
subset-sum problem to learn the measurement's preimage set J, and then tries
to project the surviving superposition onto a two-vector support. On success
the step emits one new element whose label is the difference of the two
surviving subset sums: divisible by 2^{a+r} in the power-of-two routine,
shrunk into a smaller interval in the interval routine.

The simulation never materializes the 2^k-dimensional state. Because every
basis vector carries an equal-magnitude amplitude, the ancilla outcome can be
sampled exactly by drawing one witness vector j* uniformly and evaluating the
ancilla function on it; the preimage set then comes from a subset-sum solver.
The witness is always unioned into J, which keeps the simulation faithful
even under the inexact solvers (their misses shrink J, which only shows up
as a pessimistic support size, never as an invented solution).

Projection follows the sequential model: candidate pairs are tried in sorted
adjacent order, each succeeding with probability 2/m over the current support
size m, and each failure removing the tried pair from the support. An odd
support therefore fails with probability exactly 1/|J|; an even support never
fails. Inputs are consumed unconditionally, success or not, which is what the
per-stage (k/p)^m query accounting charges for.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import GuardError
from .group_arith import ceil_div, ceil_log2
from .instance import PhaseElement
from .kinds import BRUTE
from .subset_sum import IntervalInstance, ModularInstance, solve
from .subset_sum.instances import interval_ancilla, masked_sum, modular_ancilla

FAILURE_PROJECTION = "projection"
FAILURE_REJECTION = "rejection"


@dataclass(frozen=True)
class CombineOutcome:
    """Result of one combination attempt.

    result is the fresh element on success and None on failure; failure then
    carries the code ("projection" for support exhaustion, "rejection" for
    the interval routine's rejection-sampling step). v_measured and
    support_size describe the ancilla outcome either way. solver_ops and
    solver_mem report the subset-sum work so callers can fold it into a
    ledger without reaching into the solver.
    """

    result: PhaseElement | None
    v_measured: int
    support_size: int
    pair: tuple[int, int] | None
    failure: str | None
    solver_ops: int = 0
    solver_mem: int = 0

    @property
    def ok(self) -> bool:
        return self.result is not None


def project_pair(solutions, rng: random.Random) -> tuple[int, int] | None:
    """Project a support of basis vectors down to a pair, or fail.

    Pairs are the adjacent pairs of the sorted support, tried in order. Each
    attempt succeeds with probability exactly 2/m (m = vectors still in
    support, integer-exact coin) and otherwise removes both tried vectors.
    Returns the surviving pair, or None when the support has shrunk to fewer
    than two vectors. The failure probability is 0 for even |J| and exactly
    1/|J| for odd |J|.
    """
    sols = sorted(solutions)
    if not sols:
        raise AssertionError("project_pair needs a nonempty support")
    m = len(sols)
    idx = 0
    while m >= 2:
        pair = (sols[idx], sols[idx + 1])
        if rng.randrange(m) < 2:
            return pair
        idx += 2
        m -= 2
    return None


def _combine(elems, guard, problem_at, emit, solver_id, rng, budget, solver_seed, solver_params):
    """The step both routines share: check and consume the inputs, draw the
    witness j*, solve problem_at(labels, j*) once, union j* into the
    preimage set and project. guard(inst, labels) adds the routine's checks;
    emit(labels, problem, pair) maps the surviving pair to (label, pair), or
    to None on rejection. RNG order: witness, projection coins, emit's coins.
    """
    if len(elems) < 2:
        raise GuardError(f"combination needs k >= 2 elements, got {len(elems)}")
    inst = elems[0].instance
    scale = elems[0].scale
    for e in elems:
        if e.instance is not inst:
            raise GuardError("elements from different instances cannot be combined")
        if e.scale != scale:
            raise GuardError("elements with different scales cannot be combined")
    labels = tuple(e.label for e in elems)
    guard(inst, labels)
    for e in elems:
        e.consume()

    j_star = rng.randrange(1 << len(labels))
    problem = problem_at(labels, j_star)
    sol = solve(problem, solver_id, budget=budget, seed=solver_seed, **(solver_params or {}))
    support = set(sol.solutions)
    support.add(j_star)

    pair = project_pair(support, rng)
    emitted = None if pair is None else emit(labels, problem, pair)
    v, m, ops, mem = problem.target, len(support), sol.op_count, sol.mem_peak
    if emitted is None:
        failure = FAILURE_PROJECTION if pair is None else FAILURE_REJECTION
        return CombineOutcome(None, v, m, None, failure, ops, mem)
    label, pair = emitted
    return CombineOutcome(inst.derive_element(label, scale), v, m, pair, None, ops, mem)


def combine_pow2(
    elems,
    r: int,
    a: int = 0,
    solver_id: str = BRUTE,
    *,
    rng: random.Random,
    budget: int | None = None,
    solver_seed: int = 0,
    solver_params: dict | None = None,
) -> CombineOutcome:
    """One power-of-two combination: k elements with 2^a | label in, one
    element with 2^{a+r} | label out (on success).

    The ancilla holds the r bits of the subset sum just above the a known-zero
    ones; V is sampled via a uniform witness j*, the full preimage set J comes
    from the modular subset-sum solver on the residual weights (label >> a)
    mod 2^r, and projection picks the surviving pair. The output label is the
    difference of the pair's full subset sums mod N. All inputs are consumed
    whatever the outcome.
    """

    def guard(inst, labels):
        k = len(labels)
        if not 1 <= r < k:
            raise GuardError(f"need 1 <= r < k, got r={r}, k={k}")
        if a < 0:
            raise GuardError("valuation a must be >= 0")
        if not inst.modulus.is_pow2:
            raise GuardError("power-of-two combination needs N = 2^n")
        if a + r >= inst.modulus.n + 1:
            raise GuardError(f"a + r = {a + r} exceeds the label width n = {inst.modulus.n}")
        for lab in labels:
            if lab % (1 << a):
                raise GuardError(f"label {lab} not divisible by 2^{a}")

    def problem_at(labels, j_star):
        weights = tuple(modular_ancilla(lab >> a, r) for lab in labels)
        return ModularInstance(weights, r, modular_ancilla(masked_sum(weights, j_star), r))

    def emit(labels, problem, pair):
        # derive_element reduces the difference mod N.
        return masked_sum(labels, pair[1]) - masked_sum(labels, pair[0]), pair

    return _combine(elems, guard, problem_at, emit, solver_id, rng, budget, solver_seed,
                    solver_params)


def combine_interval(
    elems,
    r: int,
    B: int,
    solver_id: str = BRUTE,
    *,
    rng: random.Random,
    budget: int | None = None,
    solver_seed: int = 0,
    solver_params: dict | None = None,
) -> CombineOutcome:
    """One interval combination: k elements with labels in [0, B) in, one
    element with label uniform on [0, B') out, B' = ceil(B / 2^r).

    The ancilla value V = floor(S * 2^{r-1} / B) pins the witness subset sum
    into a window of length L ~ B/2^{r-1}; all preimages inside the window
    come from the interval solver. After projection the output label is the
    gap d >= 0 between the pair's subset sums, which is triangular on [0, L).
    A rejection step flattens it: accept d < B' with probability
    (L - B' + 1)/(L - d), the d = 0 case capped at min(1, 2(L - B' + 1)/L),
    so accepted labels are uniform on [0, B') and the acceptance rate stays
    above a constant (about one half for uniform inputs). Rejections are
    reported with their own failure code; inputs are consumed regardless.
    """

    def guard(inst, labels):
        if B < 1:
            raise GuardError("label bound B must be >= 1")
        r_max = len(labels) - ceil_log2(len(labels))
        if not 1 <= r <= r_max:
            raise GuardError(f"need 1 <= r <= k - ceil(log2 k) = {r_max}, got r={r}")
        for lab in labels:
            if not 0 <= lab < B:
                raise GuardError(f"label {lab} outside [0, {B})")

    def problem_at(labels, j_star):
        return IntervalInstance(labels, B, r, interval_ancilla(masked_sum(labels, j_star), B, r))

    def emit(labels, problem, pair):
        s1, s2 = masked_sum(labels, pair[0]), masked_sum(labels, pair[1])
        if s1 > s2:
            pair, s1, s2 = pair[::-1], s2, s1
        d = s2 - s1
        lo, hi = problem.bounds()
        window = hi - lo
        b_prime = ceil_div(B, 1 << r)
        margin = window - b_prime + 1
        if d >= b_prime or margin <= 0:
            return None
        if d == 0:
            num, den = min(2 * margin, window), window
        else:
            num, den = margin, window - d
        return (d, pair) if rng.randrange(den) < num else None

    return _combine(elems, guard, problem_at, emit, solver_id, rng, budget, solver_seed,
                    solver_params)
