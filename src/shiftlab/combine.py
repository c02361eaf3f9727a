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

Both routines run on one label-level core, combine_labels, which the
pipeline calls on plain int labels; combine_pow2 and combine_interval add
the element checks, consume their inputs and wrap the core's result. With
brute force at k <= 18 the core builds a single table of the k weights'
subset sums: the witness's ancilla value, the preimage scan and the interval
routine's output gap are all read from it. Every other solver gets a
validated instance and one solve call.

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
from .kinds import BRUTE, INTERVAL, POW2
from .subset_sum import IntervalInstance, ModularInstance, solve
from .subset_sum.instances import (
    interval_ancilla,
    interval_bounds,
    masked_sum,
    modular_ancilla,
)
from .subset_sum.lists import OpCounter, subset_sums
from .subset_sum.solvers import _CHUNK_BITS, brute_scan, check_weight_magnitude

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


def _brute_preimages(table, r, target, bounds, budget):
    """Brute force's preimage set from the subset-sum table of all k <=
    _CHUNK_BITS weights: every subset vector whose sum has the modular
    ancilla value target (bounds None) or lies in bounds, ascending.

    brute_scan is solve_bruteforce's scan over one chunk, so the set, the
    2^k ops, the 2^k + |set| cells and the budget raise are
    solve_bruteforce's. Returns (preimages, op_count, mem_peak); the table
    is left as brute_scan leaves it.
    """
    counter = OpCounter(budget=budget)
    counter.bump_mem(len(table))
    found = brute_scan(table, (), counter, r=r, target=target, bounds=bounds)
    return found, counter.ops, counter.mem_peak


def combine_labels(labels, routine, r, where, N, solver_id, rng, budget, solver_seed,
                   solver_params):
    """One combination on int labels, without checks: the step both routines
    and the pipeline share.

    where is the input valuation a (POW2) or the label bound B (INTERVAL);
    N is the modulus that POW2 output labels are reduced by. Draws the
    witness j*, finds the preimage set of its ancilla value, unions j* into
    it and projects; RNG order: witness, projection coins, rejection coin.
    Returns (label, pair, v, support_size, solver_ops, solver_mem), label
    None on failure and pair None on projection failure.
    """
    k = len(labels)
    pow2 = routine == POW2
    if pow2:
        weights, B = [modular_ancilla(lab >> where, r) for lab in labels], None
    else:
        weights, B = labels, where
    j_star = rng.randrange(1 << k)
    brute = solver_id == BRUTE and k <= _CHUNK_BITS and not solver_params
    if brute:
        check_weight_magnitude(weights)
        table = subset_sums(weights)
        total = int(table[j_star])
    else:
        total = masked_sum(weights, j_star)
    if pow2:
        v, bounds = modular_ancilla(total, r), None
    else:
        v = interval_ancilla(total, B, r)
        bounds = interval_bounds(v, B, r)

    if brute:
        # brute force's preimages always include the witness
        support, ops, mem = _brute_preimages(table, r, v, bounds, budget)
    else:
        if pow2:
            problem = ModularInstance(tuple(weights), r, v)
        else:
            problem = IntervalInstance(tuple(labels), B, r, v)
        sol = solve(problem, solver_id, budget=budget, seed=solver_seed, **(solver_params or {}))
        support = set(sol.solutions)
        support.add(j_star)
        ops, mem = sol.op_count, sol.mem_peak

    m = len(support)
    pair = project_pair(support, rng)
    if pair is None:
        return None, None, v, m, ops, mem
    if pow2:
        label = (masked_sum(labels, pair[1]) - masked_sum(labels, pair[0])) % N
        return label, pair, v, m, ops, mem

    # interval: the gap between the pair's sums, flattened by rejection; the
    # scanned table holds the sums minus the lower bound, which keeps gaps
    if brute:
        s1, s2 = int(table[pair[0]]), int(table[pair[1]])
    else:
        s1, s2 = masked_sum(labels, pair[0]), masked_sum(labels, pair[1])
    if s1 > s2:
        pair, s1, s2 = pair[::-1], s2, s1
    d = s2 - s1
    window = bounds[1] - bounds[0]
    b_prime = ceil_div(B, 1 << r)
    margin = window - b_prime + 1
    if d >= b_prime or margin <= 0:
        return None, pair, v, m, ops, mem
    if d == 0:
        num, den = min(2 * margin, window), window
    else:
        num, den = margin, window - d
    return (d if rng.randrange(den) < num else None), pair, v, m, ops, mem


def _inputs(elems):
    """The checks every combination makes: k >= 2 elements, one instance,
    one scale. Returns (instance, scale, labels)."""
    if len(elems) < 2:
        raise GuardError(f"combination needs k >= 2 elements, got {len(elems)}")
    inst = elems[0].instance
    scale = elems[0].scale
    for e in elems:
        if e.instance is not inst:
            raise GuardError("elements from different instances cannot be combined")
        if e.scale != scale:
            raise GuardError("elements with different scales cannot be combined")
    return inst, scale, [e.label for e in elems]


def _combine(elems, inst, scale, labels, routine, r, where, solver_id, rng, budget,
             solver_seed, solver_params) -> CombineOutcome:
    """Consume the checked inputs, run the core and wrap its result."""
    for e in elems:
        e.consume()
    label, pair, v, m, ops, mem = combine_labels(
        labels, routine, r, where, inst.modulus.N, solver_id, rng, budget, solver_seed,
        solver_params,
    )
    if label is None:
        failure = FAILURE_PROJECTION if pair is None else FAILURE_REJECTION
        return CombineOutcome(None, v, m, None, failure, ops, mem)
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
    inst, scale, labels = _inputs(elems)
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
    return _combine(elems, inst, scale, labels, POW2, r, a, solver_id, rng, budget,
                    solver_seed, solver_params)


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
    inst, scale, labels = _inputs(elems)
    if B < 1:
        raise GuardError("label bound B must be >= 1")
    r_max = len(labels) - ceil_log2(len(labels))
    if not 1 <= r <= r_max:
        raise GuardError(f"need 1 <= r <= k - ceil(log2 k) = {r_max}, got r={r}")
    for lab in labels:
        if not 0 <= lab < B:
            raise GuardError(f"label {lab} outside [0, {B})")
    return _combine(elems, inst, scale, labels, INTERVAL, r, B, solver_id, rng, budget,
                    solver_seed, solver_params)
