"""Combination and projection routines: exact laws at the label level."""

import math
import random
from collections import Counter

import numpy as np
import pytest

from shiftlab.combine import (
    FAILURE_PROJECTION,
    FAILURE_REJECTION,
    _below,
    _project,
    brute_run,
    combine_interval,
    combine_labels,
    combine_pow2,
    project_pair,
)
from shiftlab.errors import ConsumedElementError, GuardError
from shiftlab.group_arith import ceil_div, ceil_log2, two_adic_valuation
from shiftlab.instance import new_instance
from shiftlab.kinds import BRUTE, INTERVAL, MITM, POW2
from shiftlab.phase_sim import statevector_combine_dist
from shiftlab.subset_sum import (
    IntervalInstance,
    ModularInstance,
    random_instance,
    solve_bruteforce,
)
from shiftlab.subset_sum.instances import (
    interval_ancilla,
    interval_bounds,
    masked_sum,
    modular_ancilla,
)
from shiftlab.subset_sum.lists import subset_sums
from shiftlab.subset_sum.solvers import table_dtype

from brute_oracle import chunk_hits, reduce_table
from conftest import chi_square_p, stream


def run_row(row, routine, r, where, N, rng, residues=None):
    """brute_run on the one-row table row, as the pipeline runs one
    invocation: (label, support_size, ops, mem), the support size being
    the memory peak less 2^k. kernel_view gives the same fields of a
    combine_labels result."""
    table = row.reshape(1, -1)
    outputs, rows, mem, left = brute_run(
        table, 0, routine, r, where, N, rng, 1, 1, 1, residues)
    assert rows == 1 and left == (0 if not outputs else 1)
    return (outputs[0] if outputs else None), mem - len(row), len(row), mem


def kernel_view(result):
    """The fields of a combine_labels result that run_row reports."""
    label, _, _, m, ops, mem = result
    return label, m, ops, mem


# -- project_pair -------------------------------------------------------------


def test_project_pair_two_always_succeeds():
    rng = stream("proj2")
    for _ in range(200):
        assert project_pair({3, 9}, rng) == (3, 9)


def test_project_pair_returns_sorted_adjacent_pair():
    rng = stream("projadj")
    support = {5, 1, 9, 13}
    for _ in range(300):
        pair = project_pair(support, rng)
        assert pair in ((1, 5), (9, 13))


def test_project_pair_failure_law_three():
    rng = stream("proj3")
    trials = 10**5
    fails = sum(project_pair({1, 2, 3}, rng) is None for _ in range(trials))
    assert abs(fails / trials - 1 / 3) < 0.005


def test_project_pair_failure_law_five():
    rng = stream("proj5")
    trials = 10**5
    fails = sum(project_pair(set(range(5)), rng) is None for _ in range(trials))
    assert abs(fails / trials - 1 / 5) < 0.004


def test_project_pair_never_fails_even_support():
    rng = stream("proj_even")
    for m in (2, 4, 6, 8):
        for _ in range(2000):
            assert project_pair(set(range(m)), rng) is not None


# -- the coin helper --------------------------------------------------------------

COIN_BOUNDS = list(range(1, 301)) + [
    n for j in range(1, 41) for n in ((1 << j) - 1, 1 << j, (1 << j) + 1)
]


def replays_randrange(below, seed: int) -> bool:
    """Whether below(rng, n) draws, for every n in COIN_BOUNDS (three
    times each), the value stock randrange(n) draws on a twin Random, and
    leaves the same rng state after every draw."""
    ours, stock = random.Random(seed), random.Random(seed)
    for n in COIN_BOUNDS:
        for _ in range(3):
            if below(ours, n) != stock.randrange(n) or ours.getstate() != stock.getstate():
                return False
    return True


@pytest.mark.parametrize("seed", [0, 1, 0x5EED, 2**64 - 1])
def test_below_replays_stock_randrange(seed):
    """The helper every combination coin comes from is stock randrange,
    value and state, at small bounds and around powers of two; a helper
    that takes its bit width from n - 1 (which draws one bit too few at
    n = 2^j) is caught."""

    def one_bit_short(rng, n):
        b = (n - 1).bit_length()
        x = rng.getrandbits(b)
        while x >= n:
            x = rng.getrandbits(b)
        return x

    assert replays_randrange(_below, seed)
    assert not replays_randrange(one_bit_short, seed)


# -- combine_pow2 --------------------------------------------------------------


def test_pow2_two_element_example():
    # labels (2, 6), a=1, r=1 over Z_16: residuals (1, 1).
    # V=0 -> J={00,11}, output 8; V=1 -> J={01,10}, output 4.
    inst = new_instance(16, 5, seed=1)
    rng = stream("pow2ex")
    seen = set()
    for _ in range(300):
        elems = [inst.derive_element(2), inst.derive_element(6)]
        out = combine_pow2(elems, 1, a=1, rng=rng)
        assert out.support_size == 2
        if out.v_measured == 0:
            if out.ok:
                assert out.pair == (0b00, 0b11)
                assert out.result.label == 8
        else:
            assert out.v_measured == 1
            if out.ok:
                assert out.pair == (0b01, 0b10)
                assert out.result.label == 4
        if out.ok:
            assert out.result.label % 4 == 0
            seen.add(out.result.label)
    assert seen == {4, 8}


def test_pow2_constant_ancilla():
    inst = new_instance(256, 9, seed=2)
    rng = stream("pow2const")
    elems = [inst.derive_element(l) for l in (8, 16, 24)]
    out = combine_pow2(elems, 2, a=1, rng=rng)
    assert out.v_measured == 0
    assert out.support_size == 8  # every subset works


def test_pow2_output_valuation_property():
    inst = new_instance(1 << 12, 77, seed=3)
    rng = stream("pow2val")
    successes = 0
    while successes < 10**4:
        r = rng.randrange(1, 5)
        k = r + 1 + rng.randrange(0, 3)
        elems = [inst.sample_element() for _ in range(k)]
        out = combine_pow2(elems, r, rng=rng)
        if out.ok:
            successes += 1
            assert two_adic_valuation(out.result.label) >= r


def test_pow2_v_distribution_matches_enumeration():
    # Empirical V frequencies against the exact statevector enumeration.
    inst = new_instance(64, 3, seed=4)
    rng = stream("pow2dist")
    labels = (7, 11, 29, 41, 2)
    dist = statevector_combine_dist(labels, 3, POW2)
    counts = Counter()
    trials = 20000
    for _ in range(trials):
        elems = [inst.derive_element(l) for l in labels]
        out = combine_pow2(elems, 3, rng=rng)
        counts[out.v_measured] += 1
        # solver support must equal the enumerated preimage set size
        assert out.support_size == len(dist.preimages[out.v_measured])
    assert chi_square_p(
        [counts[v] for v in dist.values],
        [float(dist.probs[v]) * trials for v in dist.values],
    ) > 0.001


def test_pow2_consumes_inputs_even_on_failure():
    inst = new_instance(64, 3, seed=5)
    rng = stream("pow2consume")
    for _ in range(50):
        elems = [inst.sample_element() for _ in range(3)]
        combine_pow2(elems, 2, rng=rng)
        for e in elems:
            with pytest.raises(ConsumedElementError):
                e.consume()


def test_pow2_guards():
    inst = new_instance(64, 3, seed=6)
    rng = stream("pow2guard")
    mk = lambda *ls: [inst.derive_element(l) for l in ls]
    with pytest.raises(GuardError):
        combine_pow2(mk(1, 2), 2, rng=rng)  # r >= k
    with pytest.raises(GuardError):
        combine_pow2(mk(1, 2, 3), 2, a=5, rng=rng)  # a + r > n
    with pytest.raises(GuardError):
        combine_pow2(mk(1, 2, 3), 2, a=1, rng=rng)  # labels not even
    with pytest.raises(GuardError):
        combine_pow2([inst.derive_element(1)], 1, rng=rng)  # k < 2
    odd = new_instance(15, 3, seed=6)
    with pytest.raises(GuardError):
        combine_pow2([odd.derive_element(1), odd.derive_element(2)], 1, rng=rng)
    other = new_instance(64, 3, seed=7)
    with pytest.raises(GuardError):
        combine_pow2([inst.derive_element(1), other.derive_element(2)], 1, rng=rng)


def test_pow2_scale_passthrough():
    inst = new_instance(64, 3, seed=8)
    rng = stream("pow2scale")
    for _ in range(40):
        elems = [inst.derive_element(l, scale=5) for l in (4, 12, 20)]
        out = combine_pow2(elems, 2, rng=rng)
        if out.ok:
            assert out.result.scale == 5
            return
    raise AssertionError("no success in 40 tries")


# -- the shared core ------------------------------------------------------------


@pytest.mark.parametrize("routine", [POW2, INTERVAL])
@pytest.mark.parametrize("solver_id", [BRUTE, MITM])
def test_each_combination_solves_one_witness_instance(solver_id, routine, monkeypatch):
    """One validated subset-sum instance per call, solved once, for brute
    force as for mitm: it is the instance of the input labels and the
    witness the rng is about to draw, its target is the measured ancilla
    value, every reported pair solves it and the support is its full
    solution set."""
    import shiftlab.combine as combine_mod

    built, solved = [], []
    real_solve = combine_mod.solve

    def recording(cls):
        def make(*args):
            built.append(cls(*args))
            return built[-1]
        return make

    def solve(problem, *args, **kwargs):
        solved.append(problem)
        return real_solve(problem, *args, **kwargs)

    monkeypatch.setattr(combine_mod, "solve", solve)
    monkeypatch.setattr(combine_mod, "ModularInstance", recording(combine_mod.ModularInstance))
    monkeypatch.setattr(combine_mod, "IntervalInstance", recording(combine_mod.IntervalInstance))
    N = 256 if routine == POW2 else 251
    inst = new_instance(N, 7, seed=21)
    rng = stream("core", routine)
    for call in range(40):
        elems = [inst.sample_element() for _ in range(6)]
        labels = tuple(e.label for e in elems)
        witness_rng = random.Random()
        witness_rng.setstate(rng.getstate())
        j_star = witness_rng.randrange(1 << len(labels))
        if routine == POW2:
            out = combine_pow2(elems, 3, solver_id=solver_id, rng=rng)
        else:
            out = combine_interval(elems, 2, N, solver_id, rng=rng)
        assert len(built) == len(solved) == call + 1
        problem = built[-1]
        assert solved[-1] is problem
        if routine == POW2:
            weights = tuple(modular_ancilla(lab, 3) for lab in labels)
            want = ModularInstance(weights, 3, modular_ancilla(masked_sum(weights, j_star), 3))
        else:
            target = interval_ancilla(masked_sum(labels, j_star), N, 2)
            want = IntervalInstance(labels, N, 2, target)
        assert problem == want
        assert problem.target == out.v_measured
        if out.pair is not None:
            assert all(problem.check(j) for j in out.pair)
        assert out.support_size == len(solve_bruteforce(problem))


@pytest.mark.parametrize("flavor", ["modular", "interval"])
def test_core_brute_branch_matches_solve_bruteforce(flavor):
    """Brute force's one-row kernel against solve_bruteforce, k = 2..18:
    its one-chunk scan of a table_dtype table finds the same set on planted
    and unplanted instances and on weights whose k * max sits just below
    2^31 (int32 tables) and just above it (int64), and brute_run on the
    labels' table (power-of-two labels at a valuation a > 0) has the
    support size, op count and memory peak of the instance its witness
    defines, and combine_labels' label from the same seed, whose pair
    solves that instance."""
    rng = stream("core-brute", flavor)
    for k in range(2, 19):
        problems = [
            random_instance(flavor, k, rng.randrange(1, k + 3), rng, plant=plant)
            for plant in (True, False)
        ]
        for top in (((1 << 31) - 1) // k, (1 << 31) // k + 1):
            weights = tuple(rng.randrange(top + 1) for _ in range(k - 1)) + (top,)
            total = masked_sum(weights, rng.randrange(1 << k))
            r = rng.choice((rng.randrange(1, k + 3), 31, 32, 40))
            if flavor == "modular":
                problems.append(ModularInstance(weights, r, modular_ancilla(total, r)))
            else:
                problems.append(IntervalInstance(weights, top + 1, r,
                                                 interval_ancilla(total, top + 1, r)))
        for problem in problems:
            bounds = problem.bounds() if flavor == "interval" else None
            dtype = table_dtype(k, max(problem.weights))
            table = subset_sums(np.array(problem.weights, dtype=dtype))
            assert table.dtype == dtype
            reduced = reduce_table(table, problem.r, bounds)
            found = chunk_hits(reduced, 0, problem.r, problem.target, bounds)
            assert found.tolist() == sorted(solve_bruteforce(problem).solutions)
        assert [table_dtype(k, max(p.weights)) for p in problems[2:]] == [np.int32, np.int64]

        if flavor == "modular":
            r = rng.randrange(1, k)
            where = rng.randrange(1, 8)
            N = 1 << (where + r + rng.randrange(8))
            labels = [rng.randrange(N >> where) << where for _ in range(k)]
            routine, weights = POW2, [modular_ancilla(lab >> where, r) for lab in labels]
        else:
            r = rng.randrange(1, k - ceil_log2(k) + 1)
            N = where = rng.choice((1 << k, rng.randrange(2, 1 << 30)))
            labels = [rng.randrange(N) for _ in range(k)]
            routine, weights = INTERVAL, labels
        seed = rng.randrange(1 << 32)
        j_star = random.Random(seed).randrange(1 << k)
        row = subset_sums(np.array(labels, dtype=table_dtype(k, max(labels))))
        label, m, ops, mem = run_row(row, routine, r, where, N, random.Random(seed))
        total = masked_sum(weights, j_star)
        if routine == POW2:
            problem = ModularInstance(tuple(weights), r, modular_ancilla(total, r))
        else:
            problem = IntervalInstance(tuple(labels), N, r, interval_ancilla(total, N, r))
        ref = solve_bruteforce(problem)
        assert j_star in ref.solutions
        assert (m, ops, mem) == (len(ref.solutions), ref.op_count, ref.mem_peak)
        core = combine_labels(labels, routine, r, where, N, BRUTE, random.Random(seed), 0)
        assert core[0] == label and core[2] == problem.target
        if core[1] is not None:
            assert set(core[1]) <= ref.solutions


@pytest.mark.parametrize("routine", [POW2, INTERVAL])
def test_core_brute_table_path_matches_instance_path(routine):
    """With equal rng states, the pipeline's one-row brute_run run on the
    table of the labels (at a valuation a > 0 for power-of-two labels) and
    combine_labels with brute force and with mitm (both exact) give the
    same label and support size and leave the same rng state; brute
    force's solver path also charges the kernel's ops and memory, and the
    two solver paths give the same v and pair."""
    rng = stream("core-paths", routine)
    N = 1 << 20 if routine == POW2 else 1000003
    for _ in range(300):
        k = rng.randrange(4, 13)
        if routine == POW2:
            r = rng.randrange(1, k)
            a = rng.randrange(1, 20 - r)
            labels = [rng.randrange(N >> a) << a for _ in range(k)]
            where = a
        else:
            r = rng.randrange(1, k - ceil_log2(k) + 1)
            where = rng.choice((N, rng.randrange(2, 1 << 16)))
            labels = [rng.randrange(where) for _ in range(k)]
        state = rng.getstate()
        coins = random.Random()
        coins.setstate(state)
        kernel = run_row(subset_sums(labels), routine, r, where, N, coins)
        outs = [(kernel, coins.getstate())]
        for solver_id in (BRUTE, MITM):
            coins.setstate(state)
            out = combine_labels(labels, routine, r, where, N, solver_id, coins, 0)
            outs.append((out, coins.getstate()))
        (brute, brute_state), (mitm, mitm_state) = outs[1:]
        assert (kernel_view(brute), brute_state) == outs[0]
        assert (brute[:4], brute_state) == (mitm[:4], mitm_state)


def reference_combination(labels, routine, r, where, N, rng, seen):
    """combine_labels' brute-force result, written out from the laws: stock
    randrange coins (witness, projection, rejection) and solve_bruteforce on
    the witness's instance. seen counts the branches taken."""
    k = len(labels)
    if routine == POW2:
        weights = tuple(modular_ancilla(lab >> where, r) for lab in labels)
    else:
        weights = tuple(labels)
    total = masked_sum(weights, rng.randrange(1 << k))
    if routine == POW2:
        v = modular_ancilla(total, r)
        problem = ModularInstance(weights, r, v)
    else:
        v = interval_ancilla(total, where, r)
        problem = IntervalInstance(weights, where, r, v)
    sol = solve_bruteforce(problem)
    support = sorted(sol.solutions)
    m, ops, mem = len(support), sol.op_count, sol.mem_peak
    pair = None
    for idx in range(0, m - 1, 2):
        if rng.randrange(m - idx) < 2:
            pair = (support[idx], support[idx + 1])
            break
    if pair is None:
        seen["projection"] += 1
        return None, None, v, m, ops, mem
    if routine == POW2:
        return (masked_sum(labels, pair[1]) - masked_sum(labels, pair[0])) % N, pair, v, m, ops, mem
    s1, s2 = masked_sum(labels, pair[0]), masked_sum(labels, pair[1])
    if s1 > s2:
        pair, s1, s2 = (pair[1], pair[0]), s2, s1
    d = s2 - s1
    lo, hi = problem.bounds()
    b_prime = ceil_div(where, 1 << r)
    margin = hi - lo - b_prime + 1
    if d >= b_prime or margin <= 0:
        return None, pair, v, m, ops, mem
    if d == 0:
        seen["gap 0"] += 1
        num, den = min(2 * margin, hi - lo), hi - lo
    else:
        num, den = margin, hi - lo - d
    accepted = rng.randrange(den) < num
    seen["accepted" if accepted else "rejected"] += 1
    return (d if accepted else None), pair, v, m, ops, mem


@pytest.mark.parametrize("routine", [POW2, INTERVAL])
def test_brute_kernels_match_randrange_reference(routine):
    """combine_labels with brute force, and brute_run on int32 and int64
    rows, against reference_combination from equal rng states: the same
    (label, pair, v, m, ops, mem) from combine_labels, the same (label, m,
    ops, mem) from brute_run, and the same final rng state. The cases cover
    odd supports that fail projection and, for the interval routine, gaps
    of 0 and rejection coins that accept and reject; power-of-two rows hold
    the labels' sums, at valuations 0 and a > 0, wrapped mod 2^64 at
    N = 2^62, and at valuation 0 and r <= 8 are also walked as residue
    bytes, as stage 0 walks them."""
    rng = stream("kernel-reference", routine)
    seen = Counter()
    for _ in range(400):
        k = rng.randrange(2, 13)
        if routine == POW2:
            N = rng.choice((1 << 16, 1 << 62))
            r = rng.randrange(1, k)
            where = rng.choice((0, rng.randrange(1, 16 - r)))
            labels = [rng.randrange(N >> where) << where for _ in range(k)]
        else:
            N = 1000003
            r = rng.randrange(1, k - ceil_log2(k) + 1)
            # small bounds repeat labels, which makes gaps of 0
            where = rng.choice((N, rng.randrange(2, 64), rng.randrange(2, 1 << 20)))
            labels = [rng.randrange(where) for _ in range(k)]
        dtypes = (np.int64,) if N == 1 << 62 else (np.int32, np.int64)
        rows = [subset_sums(np.array(labels, dtype=dtype)) for dtype in dtypes]
        state = rng.getstate()
        coins = random.Random()
        coins.setstate(state)
        want = reference_combination(labels, routine, r, where, N, coins, seen)
        want_state = coins.getstate()
        coins.setstate(state)
        assert combine_labels(labels, routine, r, where, N, BRUTE, coins, 0) == want
        assert coins.getstate() == want_state
        runs = [lambda c, row=row: run_row(row, routine, r, where, N, c) for row in rows]
        if routine == POW2 and where == 0 and r <= 8:
            for row in rows:
                res = (row & ((1 << r) - 1)).astype(np.uint8).tobytes()
                runs.append(lambda c, row=row, res=res: run_row(row, routine, r, where, N, c, res))
        for run in runs:
            coins.setstate(state)
            assert run(coins) == kernel_view(want)
            assert coins.getstate() == want_state
    assert seen["projection"] > 0
    if routine == INTERVAL:
        assert min(seen["gap 0"], seen["accepted"], seen["rejected"]) > 0


def test_byte_walk_preimages_match_chunk_hits():
    """brute_run's residue-byte walk against chunk_hits on the reduced row,
    for int32 and int64 rows, wrapped mod 2^64 at N = 2^62, and every r in
    1..8: run on the middle row of a three-row table, it gives the label
    of the pair that project_pair picks from the ascending chunk_hits
    support with the same seed, one row run, a memory peak of 2^k + |J|,
    the allowance left and the same final rng state; it reads no byte
    outside the row's (the other rows' bytes hold every value below 2^r)
    and leaves the row as it was, as does the numpy scan of the row, which
    gives the same result."""
    rng = stream("byte-walk")
    for dtype, N in ((np.int32, 1 << 16), (np.int64, 1 << 40), (np.int64, 1 << 62)):
        for r in range(1, 9):
            for _ in range(20):
                k = rng.randrange(r + 1, 13)
                labels = [rng.randrange(N) for _ in range(k)]
                row = subset_sums(np.array(labels, dtype=dtype))
                assert row.dtype == dtype
                table = np.stack([row, row, row])
                before = row.copy()
                pad = bytes(i % 256 for i in range(len(row)))
                res = pad + (row & ((1 << r) - 1)).astype(np.uint8).tobytes() + pad
                args = (POW2, r, 0, N)
                seed = rng.randrange(1 << 32)
                walk = random.Random(seed)
                out = brute_run(table, 1, *args, walk, 1, 1, 1, res)
                assert np.array_equal(table[1], before)
                coins = random.Random(seed)
                v = before.item(_below(coins, len(row))) % (1 << r)
                want = chunk_hits(reduce_table(before.copy(), r, None), 0, r, v, None).tolist()
                pair = project_pair(want, coins)
                got = [] if pair is None else [(before.item(pair[1]) - before.item(pair[0])) % N]
                assert out == (got, 1, len(row) + len(want), len(got))
                assert walk.getstate() == coins.getstate()
                scan = random.Random(seed)
                scanned = brute_run(table, 1, *args, scan, 1, 1, 1)
                assert np.array_equal(table[1], before)
                assert scanned == out and scan.getstate() == coins.getstate()


def run_rows_singly(table, j, routine, r, where, N, rng, need, left, cap, residues):
    """brute_run's stopping rule written out over one-row calls, with its
    aggregates: (outputs, rows_run, mem_peak, left)."""
    outputs, mem = [], 0
    for row in range(j, len(table)):
        got, rows, peak, _ = brute_run(table, row, routine, r, where, N, rng, 1, 1, 1,
                                       residues)
        assert rows == 1
        mem = max(mem, peak)
        if not got:
            left -= 1
            if not left:
                break
        else:
            outputs += got
            need -= 1
            if not need:
                break
            left = cap
    return outputs, row + 1 - j, mem, left


@pytest.mark.parametrize("routine,N,dtype,r", [
    (POW2, 1 << 16, np.int32, 5),
    (POW2, 1 << 40, np.int64, 7),
    (POW2, 1 << 16, np.int32, 9),
    (POW2, 1 << 40, np.int64, 10),
    (POW2, 1 << 62, np.int64, 6),
    (POW2, 1 << 62, np.int64, 9),
    (INTERVAL, 1000003, np.int32, 8),
    (INTERVAL, (1 << 40) + 15, np.int64, 6),
], ids=["full-int32-bytes", "full-int64-bytes", "full-int32-scan", "full-int64-scan",
        "wrap-int64-bytes", "wrap-int64-scan", "interval-int32", "interval-int64"])
def test_multi_row_run_matches_one_row_per_call(routine, N, dtype, r):
    """One brute_run call over consecutive rows of a wave-shaped table
    gives what the same rows give run one per call: the same outputs, rows
    run, memory peak and allowance left, and the same final rng state.
    Runs start mid-table and stop on successes, on a spent allowance and
    at the last row. At N = 2^62 the rows' sums wrap mod 2^64."""
    # power-of-two rows at r = k - 1, where odd supports, and so failures, are common
    k = 12 if routine == INTERVAL else r + 1
    rows = 24
    rng = stream("multi-row-run", routine, N, r)
    where = 0 if routine == POW2 else N
    labels = np.array([rng.randrange(N) for _ in range(rows * k)], dtype=np.int64)
    table = subset_sums(labels.reshape(rows, k).astype(dtype))
    assert table.dtype == dtype
    residues = None
    if routine == POW2 and r <= 8:
        residues = (table & ((1 << r) - 1)).astype(np.uint8).tobytes()
    stops = Counter()
    for need, left, cap in ((3, 2, 2), (rows, 1, 1), (rows, 2, 3), (2, rows, rows),
                            (rows, rows, rows), (5, 3, 4)):
        j = rng.randrange(rows // 2)
        seed = rng.randrange(1 << 32)
        outs = []
        for run in (brute_run, run_rows_singly):
            coins = random.Random(seed)
            # interval scans reduce rows in place: a fresh table each
            got = run(table.copy(), j, routine, r, where, N, coins, need, left, cap, residues)
            outs.append((got, coins.getstate()))
        assert outs[0] == outs[1]
        ok, rows_run, _, rest = outs[0][0]
        assert rows_run >= len(ok) and j + rows_run <= rows
        stops["need" if len(ok) == need else "allowance" if not rest else "end"] += 1
    assert set(stops) == {"need", "allowance", "end"}


@pytest.mark.parametrize("routine", [POW2, INTERVAL])
def test_inlined_tail_matches_project(routine):
    """brute_run's inlined projection tail against _project from equal rng
    states: after the witness, _project on the support enumerated from the
    row, summing the labels, gives the same label, |J| and memory, and
    leaves the same rng state. Power-of-two rows are int32 and int64, and
    wrapped mod 2^64 at N = 2^62; the cases cover odd and even supports,
    |J| = 1 and, for the interval routine, gaps of 0, accepted and
    rejected coins and gaps past B'. Neither copy tests for margin <= 0:
    every window that holds the witness has margin >= 1, checked over all
    small bounds."""
    rng = stream("inlined-tail", routine)
    seen = Counter()
    for _ in range(600):
        k = rng.randrange(2, 11)
        dtype = rng.choice((np.int32, np.int64))
        if routine == POW2:
            N, where = rng.choice((1 << 16, 1 << 62)), 0
            r = rng.randrange(1, k)
            labels = [rng.randrange(N) for _ in range(k)]
            if N == 1 << 62:
                dtype = np.int64
        else:
            N = 1000003
            r = rng.randrange(1, k - ceil_log2(k) + 1)
            where = rng.choice((N, rng.randrange(2, 64), rng.randrange(2, 1 << 20)))
            labels = [rng.randrange(where) for _ in range(k)]
        row = subset_sums(np.array(labels, dtype=dtype))
        seed = rng.randrange(1 << 32)
        coins = random.Random(seed)
        got = run_row(row.copy(), routine, r, where, N, coins)

        ref = random.Random(seed)
        total = row.item(_below(ref, len(row)))
        sums = [masked_sum(labels, i) for i in range(len(row))]
        if routine == POW2:
            want_v, bounds = total % (1 << r), None
            support = [i for i, s in enumerate(sums) if s % (1 << r) == want_v]
        else:
            want_v = interval_ancilla(total, where, r)
            bounds = interval_bounds(want_v, where, r)
            support = [i for i, s in enumerate(sums) if bounds[0] <= s < bounds[1]]
        want = _project(labels, support, routine, r, where, N, ref, want_v, bounds, len(row),
                        len(row) + len(support))
        assert got == kernel_view(want)
        assert coins.getstate() == ref.getstate()
        label, pair, _, m, _, _ = want
        seen["odd" if m % 2 else "even"] += 1
        seen["one"] += m == 1
        if routine == INTERVAL and pair is not None:
            d = abs(sums[pair[1]] - sums[pair[0]])
            if d >= ceil_div(where, 1 << r):
                seen["past B'"] += 1
            else:
                seen["gap 0" if d == 0 else "gap"] += 1
                seen["accepted" if label is not None else "rejected"] += 1
    assert min(seen["odd"], seen["even"], seen["one"]) > 0
    if routine == INTERVAL:
        assert min(seen["past B'"], seen["gap 0"], seen["accepted"], seen["rejected"]) > 0
        for where in range(1, 200):
            for r in range(1, 9):
                b_prime = ceil_div(where, 1 << r)
                for v in range(12 << (r - 1)):
                    lo, hi = interval_bounds(v, where, r)
                    assert hi == lo or hi - lo - b_prime + 1 >= 1


# -- combine_interval ----------------------------------------------------------


def test_interval_zero_labels():
    inst = new_instance(101, 3, seed=9)
    rng = stream("intzero")
    done = 0
    for _ in range(50):
        elems = [inst.derive_element(0), inst.derive_element(0)]
        out = combine_interval(elems, 1, 16, rng=rng)
        assert out.v_measured == 0
        assert out.support_size == 4
        if out.ok:
            assert out.result.label == 0
            done += 1
    assert done > 0


def test_interval_outcomes_match_enumeration():
    inst = new_instance(101, 3, seed=10)
    rng = stream("intdist")
    labels = (3, 5, 6, 7)
    dist = statevector_combine_dist(labels, 2, INTERVAL, B=8)
    counts = Counter()
    trials = 20000
    for _ in range(trials):
        elems = [inst.derive_element(l) for l in labels]
        out = combine_interval(elems, 2, 8, rng=rng)
        counts[out.v_measured] += 1
        assert out.support_size == len(dist.preimages[out.v_measured])
        if out.ok:
            assert 0 <= out.result.label < 2  # B' = ceil(8/4) = 2
    assert chi_square_p(
        [counts[v] for v in dist.values],
        [float(dist.probs[v]) * trials for v in dist.values],
    ) > 0.001


def test_interval_failure_codes():
    inst = new_instance(101, 3, seed=11)
    rng = stream("intfail")
    seen = set()
    for _ in range(400):
        elems = [inst.derive_element(rng.randrange(16)) for _ in range(8)]
        out = combine_interval(elems, 4, 16, rng=rng)
        if not out.ok:
            seen.add(out.failure)
        if seen == {FAILURE_PROJECTION, FAILURE_REJECTION}:
            break
    assert FAILURE_REJECTION in seen


def test_interval_guards():
    inst = new_instance(101, 3, seed=12)
    rng = stream("intguard")
    mk = lambda *ls: [inst.derive_element(l) for l in ls]
    with pytest.raises(GuardError):
        combine_interval(mk(1, 2, 3, 4), 3, 8, rng=rng)  # r > k - ceil(log2 k)
    with pytest.raises(GuardError):
        combine_interval(mk(1, 9, 3, 4), 2, 8, rng=rng)  # label >= B
    with pytest.raises(GuardError):
        combine_interval(mk(1, 2, 3, 4), 2, 0, rng=rng)  # bad B


def test_interval_acceptance_rate_floor():
    """Acceptance stays well above 1/4 at pipeline operating points."""
    inst = new_instance(1000003, 3, seed=13)
    rng = stream("intrate")
    for k in (8, 12):
        r = k - (k - 1).bit_length()
        ok = 0
        trials = 1500
        for _ in range(trials):
            elems = [inst.sample_element() for _ in range(k)]
            out = combine_interval(elems, r, 1000003, rng=rng)
            ok += out.ok
        assert ok / trials >= 0.25, f"k={k}: rate {ok / trials}"


@pytest.mark.slow
def test_interval_output_uniformity():
    """10^4 accepted outputs at k=16: flat on [0, B') by chi-square."""
    inst = new_instance(1000003, 3, seed=1)
    rng = random.Random(1)
    k = 16
    r = k - (k - 1).bit_length()  # 12
    B = 1000003
    b_prime = -(-B // (1 << r))
    accepted = []
    while len(accepted) < 10**4:
        elems = [inst.sample_element() for _ in range(k)]
        out = combine_interval(elems, r, B, rng=rng)
        if out.ok:
            accepted.append(out.result.label)
    buckets = 10
    counts = [0] * buckets
    for lab in accepted:
        counts[lab * buckets // b_prime] += 1
    sizes = [
        (b_prime * (i + 1) // buckets) - (b_prime * i // buckets) for i in range(buckets)
    ]
    expected = [len(accepted) * sz / b_prime for sz in sizes]
    assert chi_square_p(counts, expected) > 0.001
