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

Both routines run on one label-level core, combine_labels: the witness,
one subset_sum.solve call on the instance it defines, whatever the solver,
and _project on the solution set. combine_pow2 and combine_interval add
the element checks, consume their inputs and wrap the core's result.
The pipeline's stage loop runs brute force at k <= 18 on the run kernel,
brute_run, instead: one row per combination of a table of the input
labels' subset sums (a stage-0 wave, pipeline._wave_rows, or a later
stage's one-row table), each row run whole in one loop with no call per
row: the witness's ancilla value, the preimages (one scan of the row) and
_project's tail, inlined, with the output label or gap read from the row.
It returns aggregates: the outputs, the rows run, their memory peak and
the allowance left. One call runs the table's rows from a
given one in demand order until the stage's demand is met, its failure
allowance is spent or the table ends; the stage loop passes its
allowance in and carries on with what is left.
Power-of-two rows are int64 sums that wrap mod 2^64 past 2^63, which
changes neither their ancilla bits nor their differences mod N = 2^n. At
r <= 8 stage 0 passes the wave's residues mod 2^r as bytes, and the
preimages come from bytes.find instead of the numpy scan. On equal labels
and rng state, brute force through combine_labels gives what the kernel
gives: the core checks it.

Projection follows the sequential model: candidate pairs are tried in sorted
adjacent order, each succeeding with probability 2/m over the current support
size m, and each failure removing the tried pair from the support. An odd
support therefore fails with probability exactly 1/|J|; an even support never
fails. Inputs are consumed unconditionally, success or not, which is what the
per-stage (k/p)^m query accounting charges for.

Every coin of a combination (the witness, the projection coins, the
interval rejection coin) is drawn from rng.getrandbits exactly as stock
random.Random.randrange(n) draws it (_below): the same values and the same
final rng state, without randrange's per-call overhead. The kernels draw
from a bound rng.getrandbits inline, with the same rule. A random.Random
subclass that overrides randrange is therefore not consulted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import GuardError
from .group_arith import ceil_log2
from .instance import PhaseElement
from .kinds import BRUTE, INTERVAL, POW2
from .subset_sum import IntervalInstance, ModularInstance, solve
from .subset_sum.instances import (
    interval_ancilla,
    interval_bounds,
    masked_sum,
    modular_ancilla,
)
from .subset_sum.solvers import _REDUCED

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


def _below(rng: random.Random, n: int) -> int:
    """rng.randrange(n) for n >= 1, drawn the way stock CPython draws it
    (Random._randbelow_with_getrandbits): getrandbits(n.bit_length()),
    drawn again until it is below n. Same value, same final rng state, less
    per-call overhead; every coin of a combination comes from here."""
    b = n.bit_length()
    x = rng.getrandbits(b)
    while x >= n:
        x = rng.getrandbits(b)
    return x


def project_pair(solutions, rng: random.Random) -> tuple[int, int] | None:
    """Project a support of basis vectors down to a pair, or fail.

    Pairs are the adjacent pairs of the sorted support, tried in order. Each
    attempt succeeds with probability exactly 2/m (m = vectors still in
    support, integer-exact coin) and otherwise removes both tried vectors.
    Returns the surviving pair, or None when the support has shrunk to fewer
    than two vectors. The failure probability is 0 for even |J| and exactly
    1/|J| for odd |J|. The coins come from rng.getrandbits exactly as stock
    randrange(m) draws them (_below), so a random.Random subclass that
    overrides randrange is not consulted.
    """
    sols = sorted(solutions)
    if not sols:
        raise AssertionError("project_pair needs a nonempty support")
    return _pair(sols, rng.getrandbits)


def _pair(sols: list[int], getrandbits) -> tuple[int, int] | None:
    """project_pair's loop on a nonempty ascending support list; its coins
    come from getrandbits, a bound rng.getrandbits, drawn as _below draws
    them."""
    m = len(sols)
    idx = 0
    while m >= 2:
        b = m.bit_length()
        x = getrandbits(b)
        while x >= m:
            x = getrandbits(b)
        if x < 2:
            return sols[idx], sols[idx + 1]
        idx += 2
        m -= 2
    return None


def brute_run(table, j, routine, r, where, N, rng, need, left, cap, residues=None):
    """Brute-force combinations on consecutive rows of table, from row j:
    row i is the int32 or int64 table of the subset sums of the k <= 18
    input labels of one combination. Power-of-two rows may wrap mod 2^64
    (N = 2^n divides 2^64), which keeps their bits where..where+r-1, the
    ancilla, and the differences of their sums mod N, the output label.

    Each row is one whole combination, run inline with no call per row:
    the witness, its ancilla value and bounds (modular_ancilla of the
    sum's bits from where, interval_ancilla and interval_bounds), the
    preimages, and _project's tail (_pair's coins, the output label or
    gap, the rejection coin). The preimages come in ascending order from
    one of two scans:
    - residues, POW2 at where = 0 and r <= 8 only: the table's residues
      mod 2^r, one byte per cell in table order, walked with bytes.find;
    - otherwise one pass over the row: the ancilla bits of each sum
      compared with the witness's (POW2, into a new array), or (INTERVAL)
      the row's unsigned view less the capped lower bound, in place, each
      sum compared once with the capped bounds' difference; the gap is
      then read from the reduced row.
    Both find the witness. A row is charged what solve_bruteforce charges
    the same instance: 2^k ops and 2^k + |J| cells.

    The run stops after need successes, when the failure allowance left
    is spent (each failure spends one, each success restores it to cap),
    or after the last row. Returns (outputs, rows_run, mem_peak, left):
    the outputs of the rows that succeeded, in order, the rows run, their
    largest memory charge and the allowance left; for one row, |J| is the
    memory charge less 2^k. The other arguments, the RNG order and each
    row's label are combine_labels' with brute force on the row's labels,
    row after row; every coin is drawn from rng.getrandbits exactly as
    stock randrange draws it.
    """
    size = table.shape[1]
    k = size.bit_length() - 1
    getrandbits = rng.getrandbits
    pow2 = routine == POW2
    if pow2:
        mask = ((1 << r) - 1) << where  # where + r <= n <= 62: an int64
    else:
        unsigned, top = _REDUCED[table.itemsize]
        sums = table.view(unsigned)
        shift = r - 1
        b_prime = -(-where >> r)  # ceil(where / 2^r)
    outputs = []
    mem = 0
    first = j
    stop = len(table)
    while j < stop:
        # _below(size): stock randrange(2^k) draws k + 1 bits at a time
        x = getrandbits(k + 1)
        while x >= size:
            x = getrandbits(k + 1)
        total = table.item(j, x)
        if pow2:
            v = total & mask
            if residues is not None:
                start = j * size
                end = start + size
                support = []
                i = residues.find(v, start, end)
                while i >= 0:
                    support.append(i - start)
                    i = residues.find(v, i + 1, end)
            else:
                support = ((table[j] & mask) == v).nonzero()[0].tolist()
        else:
            v = (total << shift) // where
            # interval_bounds: ceil(v * where / 2^(r-1)), ceil((v + 1) * where / 2^(r-1))
            lo, hi = -((-v * where) >> shift), -((-(v + 1) * where) >> shift)
            lo_cap = lo if lo < top else top
            row = sums[j]
            row -= lo_cap
            support = (row < (hi if hi < top else top) - lo_cap).nonzero()[0].tolist()
        m = len(support)
        if size + m > mem:
            mem = size + m
        # _pair: adjacent pairs of the support, each kept with probability 2/m
        label = pair = None
        idx, n = 0, m
        while n >= 2:
            b = n.bit_length()
            x = getrandbits(b)
            while x >= n:
                x = getrandbits(b)
            if x < 2:
                pair = support[idx], support[idx + 1]
                break
            idx += 2
            n -= 2
        if pair is not None and pow2:
            label = (table.item(j, pair[1]) - table.item(j, pair[0])) % N
        elif pair is not None:
            # the gap between the pair's sums, flattened by rejection
            s1, s2 = row.item(pair[0]), row.item(pair[1])
            if s1 > s2:
                pair, s1, s2 = pair[::-1], s2, s1
            d = s2 - s1
            window = hi - lo
            margin = window - b_prime + 1  # >= 1: the window holds the witness
            if d < b_prime:
                if d == 0:
                    num, den = min(2 * margin, window), window
                else:
                    num, den = margin, window - d
                # _below(den)
                b = den.bit_length()
                x = getrandbits(b)
                while x >= den:
                    x = getrandbits(b)
                if x < num:
                    label = d
        j += 1
        if label is None:
            left -= 1
            if not left:
                break
        else:
            outputs.append(label)
            need -= 1
            if not need:
                break
            left = cap
    return outputs, j - first, mem, left


def combine_labels(labels, routine, r, where, N, solver_id, rng, solver_seed):
    """One combination on int labels, without checks: the step both routines
    share, and the pipeline's for every solver but brute force at k <= 18.

    where is the input valuation a (POW2) or the label bound B (INTERVAL);
    N is the modulus that POW2 output labels are reduced by. Draws the
    witness j*, finds the preimage set of its ancilla value with one solve
    call (solver_seed for the seeded solvers), unions j* into it and
    projects; RNG order: witness, projection coins, rejection coin.
    Returns (label, pair, v, support_size, solver_ops, solver_mem), label
    None on failure and pair None on projection failure.
    """
    pow2 = routine == POW2
    weights = [modular_ancilla(lab >> where, r) for lab in labels] if pow2 else labels
    j_star = _below(rng, 1 << len(labels))
    total = masked_sum(weights, j_star)
    if pow2:
        v, bounds = modular_ancilla(total, r), None
        problem = ModularInstance(tuple(weights), r, v)
    else:
        v = interval_ancilla(total, where, r)
        bounds = interval_bounds(v, where, r)
        problem = IntervalInstance(tuple(labels), where, r, v)
    sol = solve(problem, solver_id, seed=solver_seed)
    support = set(sol.solutions)
    support.add(j_star)
    return _project(labels, sorted(support), routine, r, where, N, rng, v, bounds,
                    sol.op_count, sol.mem_peak)


def _project(labels, support, routine, r, where, N, rng, v, bounds, ops, mem):
    """Project the ascending support list and make the output label from
    the labels' sums: combine_labels' result. The kernel brute_run inlines
    this tail."""
    m = len(support)
    pair = _pair(support, rng.getrandbits)
    if pair is None:
        return None, None, v, m, ops, mem
    s1, s2 = masked_sum(labels, pair[0]), masked_sum(labels, pair[1])
    if routine == POW2:
        return (s2 - s1) % N, pair, v, m, ops, mem

    # interval: the gap between the pair's sums, flattened by rejection
    if s1 > s2:
        pair, s1, s2 = pair[::-1], s2, s1
    d = s2 - s1
    window = bounds[1] - bounds[0]
    b_prime = -(-where >> r)  # ceil(where / 2^r)
    margin = window - b_prime + 1  # >= 1: the window holds the witness
    if d >= b_prime:
        return None, pair, v, m, ops, mem
    if d == 0:
        num, den = min(2 * margin, window), window
    else:
        num, den = margin, window - d
    return (d if _below(rng, den) < num else None), pair, v, m, ops, mem


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


def _combine(elems, inst, scale, labels, routine, r, where, solver_id, rng,
             solver_seed) -> CombineOutcome:
    """Consume the checked inputs, run the core and wrap its result."""
    for e in elems:
        e.consume()
    label, pair, v, m, ops, mem = combine_labels(
        labels, routine, r, where, inst.modulus.N, solver_id, rng, solver_seed
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
    solver_seed: int = 0,
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
    return _combine(elems, inst, scale, labels, POW2, r, a, solver_id, rng, solver_seed)


def combine_interval(
    elems,
    r: int,
    B: int,
    solver_id: str = BRUTE,
    *,
    rng: random.Random,
    solver_seed: int = 0,
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
    return _combine(elems, inst, scale, labels, INTERVAL, r, B, solver_id, rng, solver_seed)
