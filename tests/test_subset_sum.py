"""Subset-sum instances, list joins, and the solver suite vs full enumeration."""

import math
import random
import warnings

import numpy as np
import pytest

from shiftlab.errors import GuardError
from shiftlab.kinds import BRUTE, INTERVAL, MEMLESS, MITM, POW2, REP, SS
from shiftlab.subset_sum import (
    IntervalConstraint,
    IntervalInstance,
    ModularInstance,
    OpCounter,
    PartialSumList,
    WindowConstraint,
    merge_join,
    random_instance,
    solve,
    solve_bruteforce,
    solve_memoryless,
    solve_mitm,
    solve_representation,
    solve_schroeppel_shamir,
)
from shiftlab.phase_sim import ancilla_value
from shiftlab.subset_sum.instances import interval_ancilla, masked_sum, modular_ancilla
from shiftlab.subset_sum.lists import CONSISTENCY_BINARY, subset_sums
from shiftlab.subset_sum.solvers import (
    BRUTE_K_CAP,
    expected_solutions,
    sums_fit,
    table_dtype,
)

from brute_oracle import brute_solutions, chunk_hits, reduce_table
from ss_oracle import ss_solutions
from conftest import stream


def _enum(inst):
    """Independent quadratic-time reference enumeration."""
    return frozenset(m for m in range(1 << inst.k) if inst.check(m))


# -- instances ---------------------------------------------------------------


def test_ancilla_formulas_match_phase_sim_reference():
    rng = stream("ancref")
    for _ in range(300):
        k, r, B = rng.randrange(1, 10), rng.randrange(1, 8), rng.randrange(1, 500)
        labels = tuple(rng.randrange(B) for _ in range(k))
        j = rng.randrange(1 << k)
        total = masked_sum(labels, j)
        assert total == sum(lab for i, lab in enumerate(labels) if (j >> i) & 1)
        assert modular_ancilla(total, r) == ancilla_value(j, labels, r, POW2)
        assert interval_ancilla(total, B, r) == ancilla_value(j, labels, r, INTERVAL, B)


def test_modular_instance_basics():
    inst = ModularInstance((1, 2, 3), 2, 0)
    assert inst.k == 3 and inst.flavor == "modular"
    assert inst.subset_sum(0b101) == 4
    assert inst.ancilla(0b101) == 0
    assert inst.check(0b101) and not inst.check(0b001)


def test_modular_instance_validation():
    with pytest.raises(ValueError):
        ModularInstance((1, 2), 2, 4)  # target outside [0, 2^r)
    with pytest.raises(ValueError):
        ModularInstance((1, -2), 2, 0)
    with pytest.raises(ValueError):
        ModularInstance((1, 2), 0, 0)


def test_interval_instance_bounds():
    inst = IntervalInstance((3, 5, 6, 7), 8, 2, 2)
    # V = floor(2S/8): V=2 <=> S in [8, 12)
    assert inst.bounds() == (8, 12)
    assert inst.check(0b0011) and inst.subset_sum(0b0011) == 8
    assert not inst.check(0b1111)


def test_interval_instance_validation():
    with pytest.raises(ValueError):
        IntervalInstance((3, 9), 8, 2, 0)  # weight >= B
    with pytest.raises(ValueError):
        IntervalInstance((3, 5), 0, 2, 0)


def test_random_instance_planted_is_solvable():
    rng = stream("plant")
    for flavor in ("modular", "interval"):
        for _ in range(40):
            inst = random_instance(flavor, 8, 5, rng)
            assert len(_enum(inst)) >= 1


@pytest.mark.parametrize("flavor", ["modular", "interval"])
def test_random_instance_unplanted_can_be_empty(flavor):
    rng = stream("unplanted", flavor)
    empty = 0
    for _ in range(300):
        inst = random_instance(flavor, 8, 5, rng, plant=False)
        if flavor == "interval":
            assert inst.target <= interval_ancilla(sum(inst.weights), inst.B, inst.r)
        empty += not solve_bruteforce(inst).solutions
    assert empty >= 1


def _enumerate_loop(weights, mask):
    """The per-position loop masked_sum replaced; kept as its reference."""
    total = 0
    for i, w in enumerate(weights):
        if (mask >> i) & 1:
            total += w
    return total


def test_masked_sum_ignores_bits_beyond_the_weights():
    rng = stream("masked_sum")
    for k in (0, 1, 5, 12):
        weights = tuple(rng.randrange(1 << 20) for _ in range(k))
        masks = [0, (1 << k) - 1, 1 << k, (1 << (k + 9)) - 1, 1 << 100, (1 << 100) | 5]
        masks += [rng.randrange(1 << (k + 8)) for _ in range(200)]
        for mask in masks:
            assert masked_sum(weights, mask) == _enumerate_loop(weights, mask), (k, mask)


# -- merge_join --------------------------------------------------------------


def _plist(values):
    return PartialSumList(list(values), list(range(len(values))))


def test_merge_join_small_case():
    a = _plist([0, 1, 2])
    b = _plist([0, 1, 2])
    counter = OpCounter()
    out = merge_join(a, b, WindowConstraint(2, 2), None, counter)
    got = sorted((int(v), 0) for v in out.values)
    assert [v for v, _ in got] == [2, 2, 2]  # (0,2),(1,1),(2,0)
    # (3 + 3) * ceil(log2 3) + 3 ops; 3 + 3 + 3 cells
    assert (counter.ops, counter.mem_peak) == (15, 9)


def test_merge_join_empty_input():
    a = PartialSumList([], [])
    b = _plist([0, 1, 2])
    counter = OpCounter()
    assert len(merge_join(a, b, WindowConstraint(2, 0), None, counter)) == 0
    # (0 + 3) * ceil(log2 2) ops and no memory
    assert (counter.ops, counter.mem_peak) == (3, 0)


def _digit_entries(rng, weights, positions, count, zero_weight):
    """`count` random digit vectors over `positions`, rep-style: digits in
    {-1, 0, 1} (0 drawn `zero_weight` times as often), value = digits . weights."""
    draws = (-1, 1) + (0,) * zero_weight
    out = []
    for _ in range(count):
        digits = {i: rng.choice(draws) for i in positions}
        out.append((sum(d * weights[i] for i, d in digits.items()), digits))
    return out


def _digit_list(entries):
    def mask(digits, sign):
        return sum(1 << i for i, d in digits.items() if d == sign)

    return PartialSumList(
        [v for v, _ in entries],
        [mask(d, 1) for _, d in entries],
        [mask(d, -1) for _, d in entries],
    )


def _scan_join(ea, eb, cons, consistency):
    """Quadratic reference for merge_join on digit vectors: add digit-wise,
    keep the pairs whose digit sums the mode allows."""
    allowed = {None: (-1, 0, 1), CONSISTENCY_BINARY: (0, 1)}
    out = []
    for x, dx in ea:
        for y, dy in eb:
            if not cons.matches(x + y):
                continue
            total = {i: dx.get(i, 0) + dy.get(i, 0) for i in set(dx) | set(dy)}
            if any(d not in allowed[consistency] for d in total.values()):
                continue
            plus = sum(1 << i for i, d in total.items() if d == 1)
            minus = sum(1 << i for i, d in total.items() if d == -1)
            out.append((x + y, plus, minus))
    return sorted(out)


def _random_constraint(rng, t=None):
    if t is None and rng.random() < 0.3:
        lo = rng.randrange(-700, 700)
        return IntervalConstraint(lo, lo + rng.randrange(0, 300))
    t = t or rng.randrange(1, 8)
    residue = rng.randrange(1 << t)
    # half the windows run past 2^t from their residue, so some rows wrap
    count = rng.randrange(1, (1 << t) + 1) if rng.random() < 0.5 else (1 << t) - residue + 1
    return WindowConstraint(t, residue, min(count, 1 << t))


def _check_join(a, b, ea, eb, cons, consistency):
    counter = OpCounter()
    out = merge_join(a, b, cons, consistency, counter)
    got = sorted(zip(out.values.tolist(), out.plus.tolist(), out.minus.tolist()))
    assert got == _scan_join(ea, eb, cons, consistency), (cons, consistency)
    assert out.values.tolist() == sorted(out.values.tolist())
    # the charge merge_join documents: sort a, search per entry of b, write out
    la, lb = len(a), len(b)
    logn = max(1, math.ceil(math.log2(la)))
    assert (counter.ops, counter.mem_peak) == ((la + lb) * logn + len(out), la + lb + len(out))


def test_merge_join_against_quadratic_scan():
    """Windows (plain and wrapping) and intervals under both consistency
    modes, on rep-style lists with minus digits and negative values. Disjoint
    joins take digit vectors on separate positions, as the solvers' splits do;
    the binary mode draws both sides from the same positions."""
    rng = stream("join")
    n = 12
    weights = [rng.randrange(1, 64) for _ in range(n)]
    for trial in range(90):
        consistency = (None, CONSISTENCY_BINARY)[trial % 2]
        na, nb = rng.randrange(1, 31), rng.randrange(1, 31)
        zero_weight = rng.randrange(1, 5)
        if consistency is None:
            pa, pb = range(n // 2), range(n // 2, n)
        else:
            pa = pb = range(n)
        ea = _digit_entries(rng, weights, pa, na, zero_weight)
        eb = _digit_entries(rng, weights, pb, nb, zero_weight)
        _check_join(_digit_list(ea), _digit_list(eb), ea, eb, _random_constraint(rng), consistency)


def test_merge_join_reuses_list_across_keys():
    """One list joined under t1, t2, then t1 again: each join, including the
    ones served from the list's stored sorts, matches the scan."""
    rng = stream("join_rekey")
    weights = [rng.randrange(1, 64) for _ in range(12)]
    ea = _digit_entries(rng, weights, range(6), 40, 2)
    a = _digit_list(ea)
    for t in (3, 6, 3, None, 6):
        eb = _digit_entries(rng, weights, range(6, 12), rng.randrange(1, 31), 2)
        cons = _random_constraint(rng, t) if t else IntervalConstraint(-50, 80)
        _check_join(a, _digit_list(eb), ea, eb, cons, None)
    assert set(a._by_key) == {3, 6, None}


# -- exact solvers -----------------------------------------------------------


def test_bruteforce_examples():
    assert solve_bruteforce(ModularInstance((1, 2, 3), 2, 0)).solutions == frozenset({0, 5})
    all_zero = ModularInstance((0, 0, 0, 0), 1, 0)
    assert len(solve_bruteforce(all_zero).solutions) == 16
    parity = ModularInstance((2, 4, 6), 1, 1)
    assert solve_bruteforce(parity).solutions == frozenset()


def test_bruteforce_guard():
    with pytest.raises(GuardError):
        solve_bruteforce(ModularInstance((0,) * 31, 1, 0))


def _doubled_sums(weights):
    """Every subset sum by list doubling: entry m sums the weights m selects."""
    sums = [0]
    for w in weights:
        sums += [t + w for t in sums]
    return sums


# m = 8 is the largest single selection-matrix product (6 for several rows),
# 9 the first split, 16-18 reach brute force's 18-bit chunk table, 17 up
# split off 4 high weights
@pytest.mark.parametrize("m", range(21))
def test_subset_sums_match_list_doubling(m):
    rng = stream("subset_sums", m)
    top = ((1 << 62) - 1) // max(m, 1)  # sums_fit edge: m * top < 2^62
    assert sums_fit(m, top)
    cases = [
        tuple(rng.randrange(1 << 20) for _ in range(m)),
        [rng.randrange(top // 2, top + 1) for _ in range(m)],
        [top] * m,
        tuple(rng.choice((0, 1, top)) for _ in range(m)),
    ]
    for weights in cases:
        got = subset_sums(weights)
        assert got.dtype == np.int64
        assert got.shape == (1 << m,)
        assert got.tolist() == _doubled_sums(weights), weights
    if not 1 <= m <= 18:
        return
    # several rows at once, each with its own weights: row b is the table
    # of row b, for one, two and more rows than there are cases
    extra = [[rng.randrange(top + 1) for _ in range(m)] for _ in range(3)]
    for rows in ([cases[1]], cases[:2], cases + extra):
        got = subset_sums(np.array(rows, dtype=np.int64))
        assert got.dtype == np.int64
        assert got.shape == (len(rows), 1 << m)
        for b, weights in enumerate(rows):
            assert got[b].tolist() == _doubled_sums(weights), (b, weights)


@pytest.mark.parametrize("n", [16, 40, 60, 62])
def test_wrapped_int64_sums_keep_ancilla_bits_and_label_differences(n):
    # the power-of-two row format: int64 subset sums of labels below
    # N = 2^n wrap mod 2^64 past 2^63, with no warning, and keep the exact
    # sums' bits a..a+r-1 (a + r <= n) and their differences mod N, for
    # one row and for a (B, k) array of rows
    rng = stream("wrapped-sums", n)
    N = 1 << n
    wrapped = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (2, 6, 9, 12, 17, 18):
            a = rng.randrange(1, n)
            r = rng.randrange(1, n - a + 1)
            mask = ((1 << r) - 1) << a
            rows = [[rng.randrange(N >> a) << a for _ in range(k)] for _ in range(3)]
            rows.append([((N - 1) >> a) << a] * k)  # the largest sums
            tables = [subset_sums(row) for row in rows]
            tables += list(subset_sums(np.array(rows, dtype=np.int64)))
            for labels, table in zip(rows + rows, tables):
                assert table.dtype == np.int64
                wrapped += int((table < 0).any())
                masks = range(1 << k) if k <= 12 else rng.sample(range(1 << k), 1 << 12)
                exact = {i: masked_sum(labels, i) for i in masks}
                for i, s in exact.items():
                    assert table.item(i) & mask == s & mask
                pairs = list(exact.items())
                for (i1, s1), (i2, s2) in zip(pairs, pairs[1:] + pairs[:1]):
                    assert (table.item(i2) - table.item(i1)) % N == (s2 - s1) % N
    # the largest rows' sums pass 2^63 at n = 60 and 62 only
    assert (wrapped > 0) == (n >= 60)


def test_table_dtype_switches_at_two_to_the_31():
    for k in range(1, 19):
        top = ((1 << 31) - 1) // k  # k * top < 2^31 <= k * (top + 1)
        assert table_dtype(k, top) is np.int32
        assert table_dtype(k, top + 1) is np.int64


@pytest.mark.parametrize("m", range(1, 19))
def test_subset_sums_keep_int32(m):
    # at table_dtype's edge: m * top < 2^31, so every int32 sum is exact
    rng = stream("subset_sums_int32", m)
    top = ((1 << 31) - 1) // m
    rows = [
        [top] * m,
        [rng.randrange(top + 1) for _ in range(m)],
        [rng.choice((0, 1, top)) for _ in range(m)],
        [rng.randrange(top // 2, top + 1) for _ in range(m)],
    ]
    for weights in rows:
        got = subset_sums(np.array(weights, dtype=np.int32))
        assert got.dtype == np.int32
        assert got.tolist() == subset_sums(weights).tolist(), weights
    for batch in (rows[:1], rows[:2], rows):
        got = subset_sums(np.array(batch, dtype=np.int32))
        assert got.dtype == np.int32
        assert got.shape == (len(batch), 1 << m)
        assert got.tolist() == subset_sums(np.array(batch, dtype=np.int64)).tolist()


def _reduction_cases(sums, rng):
    """(r, target, bounds) cases for a table of these sums, all below 2^31:
    residues narrower and wider than the sums, planted and unplanted, and
    interval bounds planted, above every sum, and with hi past 2^31."""
    top = max(sums)
    for r in (1, 5, 30, 31, 32, 40, 63):
        yield r, rng.choice(sums) % (1 << r), None
        yield r, rng.randrange(1 << r), None
    a, b = sorted(rng.sample(sums, 2))
    yield None, 0, (a, b + 1)
    yield None, 0, (top + 1, 1 << 31)
    yield None, 0, (top + 1, (1 << 31) + 5)
    yield None, 0, ((1 << 31) + 1, 1 << 40)
    yield None, 0, (3, (1 << 31) + 7)
    yield None, 0, (0, 1 << 70)
    yield None, 0, (a, a)


@pytest.mark.parametrize("k", [2, 8, 12, 18])
def test_reduce_table_and_chunk_hits_on_int32_tables(k):
    """The same indices from int32 and int64 copies of a table as from a
    plain scan, for both flavors, with c = 0 and with c the weight a brute
    chunk adds: all sums plus c stay below 2^31, the bounds need not."""
    rng = stream("reduce_int32", k)
    top = ((1 << 31) - 1) // k
    weights = [rng.randrange(top + 1) for _ in range(k - 1)] + [top]
    sums = _doubled_sums(weights[:-1])
    for c in (0, weights[-1]):
        for r, target, bounds in _reduction_cases(sums, rng):
            if bounds is None:
                want = [i for i, t in enumerate(sums) if (t + c) % (1 << r) == target]
            else:
                want = [i for i, t in enumerate(sums) if bounds[0] <= t + c < bounds[1]]
            for dtype in (np.int32, np.int64):
                table = subset_sums(np.array(weights[:-1], dtype=dtype))
                reduced = reduce_table(table, r, bounds)
                got = chunk_hits(reduced, c, r, target, bounds)
                assert got.tolist() == want, (dtype, c, r, target, bounds)


def _python_scan(inst):
    """Pure-Python brute force: every subset sum by list doubling, then the
    instance equation on each sum; no numpy, no int64."""
    sums = _doubled_sums(inst.weights)
    if isinstance(inst, ModularInstance):
        mod = 1 << inst.r
        return frozenset(m for m, t in enumerate(sums) if t % mod == inst.target)
    lo, hi = inst.bounds()
    return frozenset(m for m, t in enumerate(sums) if lo <= t < hi)


def _brute_cases(k):
    rng = stream("brute_scan", k)
    yield random_instance("modular", k, max(1, k - 1), rng)
    yield random_instance("modular", k, 3, rng, plant=False)
    yield random_instance("interval", k, max(1, k - 2), rng)
    yield random_instance("interval", k, 2, rng, B=1 << 40)
    weights = tuple(rng.randrange(1 << 20) for _ in range(k))
    # r = 63: residues of int64 sums still test exactly
    yield ModularInstance(weights, 63, masked_sum(weights, 5))
    # interval bounds outside int64: hi only (every subset solves), then
    # both bounds above every sum, just and far
    yield IntervalInstance(weights, 1 << 70, 1, 0)
    yield IntervalInstance(weights, 1 << 70, 1, 1)
    yield IntervalInstance(weights, 1 << 21, 2, 1 << 80)


@pytest.mark.parametrize("k", [1, 2, 8, 12, 19, 20])
def test_bruteforce_matches_python_scan(k):
    chunk = 1 << min(k, 18)
    for inst in _brute_cases(k):
        got = solve_bruteforce(inst)
        want = _python_scan(inst)
        assert got.solutions == want, repr(inst)
        assert got.op_count == 1 << k
        assert got.mem_peak == chunk + len(want)


@pytest.mark.parametrize("solver", [solve_bruteforce, solve_mitm, solve_schroeppel_shamir])
def test_exact_solvers_match_bruteforce_at_int64_edges(solver):
    """r = 63 (a residue wider than any sum) and interval bounds outside
    int64 once crashed both list merges; they must return the full
    enumeration's set."""
    for k in (4, 12, 20):
        for inst in _brute_cases(k):
            assert solver(inst).solutions == brute_solutions(inst), repr(inst)


def test_ss_example():
    got = solve_schroeppel_shamir(ModularInstance((1, 2, 3, 4), 3, 3))
    assert got.solutions == frozenset({0b011, 0b100})


@pytest.mark.parametrize("solver", [solve_bruteforce, solve_mitm, solve_schroeppel_shamir])
def test_exact_solvers_match_bruteforce(solver):
    rng = stream("exact", solver.__name__)
    for flavor in ("modular", "interval"):
        for _ in range(60):
            k = rng.randrange(8, 17)
            r = rng.randrange(2, k)
            inst = random_instance(flavor, k, r, rng)
            assert solver(inst).solutions == brute_solutions(inst)


def _assert_brute_counters(inst, want):
    got = solve_bruteforce(inst)
    assert got.solutions == want, repr(inst)
    assert got.op_count == 1 << inst.k
    assert got.mem_peak == (1 << min(inst.k, 18)) + len(want)


@pytest.mark.parametrize("flavor", ["modular", "interval"])
def test_bruteforce_counters_past_the_goldens(flavor):
    """The full enumeration's set, 2^k ops and 2^min(k, 18) + |J| cells at
    k = 24 and on a dense k = 21 instance (|J| in the tens of thousands),
    which the golden digests (k = 18 and 21) do not reach."""
    rng = stream("brute-counters", flavor)
    dense = random_instance(flavor, 21, 3, rng)
    want = brute_solutions(dense)
    assert len(want) >= 20_000
    _assert_brute_counters(dense, want)
    for r in (5, 23):
        inst = random_instance(flavor, 24, r, rng)
        _assert_brute_counters(inst, brute_solutions(inst))


@pytest.mark.parametrize("flavor", ["modular", "interval"])
def test_bruteforce_at_its_cap_matches_schroeppel_shamir(flavor):
    """One k = BRUTE_K_CAP = 30 solve, the brute-force charges, and the
    four-list merge's set; 2^30 enumerated sums would take minutes."""
    rng = stream("brute-cap", flavor)
    inst = random_instance(flavor, BRUTE_K_CAP, BRUTE_K_CAP - 1, rng)
    # the guess-by-guess merge (256 guesses), not solve_schroeppel_shamir,
    # whose set comes from the join solve_bruteforce uses
    want = ss_solutions(inst).solutions
    assert want
    _assert_brute_counters(inst, want)


def _ss_oracle_cases(flavor):
    rng = stream("ss-oracle", flavor)
    for k in range(4, 14):
        for r in sorted({1, 2, k // 2, k - 1, k, k + 3}):
            yield random_instance(flavor, k, r, rng)
    for k in (16, 20, 24, 28):
        for r in (k // 2 + 3, k - 1, k):
            yield random_instance(flavor, k, r, rng)
    if flavor == "interval":
        inst = IntervalInstance((3, 5, 6, 7, 1, 2, 4, 9), 16, 8, 5)
        assert inst.bounds() == (1, 1)  # the empty window, count 0
        yield inst
    else:
        weights = tuple(rng.randrange(1 << 40) for _ in range(12))
        yield ModularInstance(weights, 70, sum(weights[:5]))
        yield ModularInstance(weights, 64, (1 << 63) + 5)  # a target past every sum


@pytest.mark.parametrize("flavor", ["modular", "interval"])
def test_ss_matches_four_list_oracle(flavor):
    """The set, ops, memory peak and stats of the guess-by-guess four-list
    merge (tests/ss_oracle.py), which the solver charges from counts."""
    for inst in _ss_oracle_cases(flavor):
        got, want = solve_schroeppel_shamir(inst), ss_solutions(inst)
        assert got.solutions == want.solutions, repr(inst)
        assert (got.op_count, got.mem_peak) == (want.op_count, want.mem_peak), repr(inst)
        assert got.stats == want.stats and got.exhausted, repr(inst)


def test_ss_memory_scaling():
    """mem ~ 2^(k/4): fit the constant at k=16, check with headroom above."""
    rng = stream("ssmem")
    peaks = {}
    for k in (16, 20, 24):
        worst = 0
        for _ in range(6):
            inst = random_instance("modular", k, k - 1, rng)
            worst = max(worst, solve_schroeppel_shamir(inst).mem_peak)
        peaks[k] = worst
    c = peaks[16] / (2 ** (16 / 4) * 16)
    for k in (20, 24):
        assert peaks[k] <= 2.5 * c * 2 ** (k / 4) * k


# -- representation solver ---------------------------------------------------


def test_rep_dense_degenerates_to_mitm():
    # k - r >= 7 expects at least 128 solutions, past DENSE_SOLUTION_CAP
    rng = stream("repdense")
    cases = [random_instance("modular", 14, 5, rng)]
    for _ in range(25):
        k = rng.choice((8, 10, 12, 14))
        cases.append(random_instance("modular", k, rng.randrange(1, k - 6), rng))
    for inst in cases:
        assert expected_solutions(inst) > 64
        got = solve_representation(inst)
        ref = solve_mitm(inst)
        assert got.solutions == ref.solutions
        assert (got.op_count, got.mem_peak) == (ref.op_count, ref.mem_peak)
        assert got.stats == {"solver": "rep", "mode": "degenerate", "rounds": 0}


def test_rep_exact_rate():
    rng = stream("reprate")
    hits = 0
    trials = 120
    for i in range(trials):
        k = rng.randrange(10, 21)
        r = rng.randrange(4, k)
        inst = random_instance("modular", k, r, rng)
        got = solve_representation(inst, seed=i)
        hits += got.solutions == solve_bruteforce(inst).solutions
    assert hits / trials >= 0.99


@pytest.mark.slow
def test_rep_planted_wide_instance():
    """Planted single solution beyond the brute-force width cap; ~2.5 min."""
    rng = stream("repplant")
    k, r = 32, 32
    weights = tuple(rng.randrange(1 << r) for _ in range(k))
    witness = rng.randrange(1 << k)
    probe = ModularInstance(weights, r, 0)
    inst = ModularInstance(weights, r, probe.ancilla(witness))
    got = solve_representation(inst, seed=3)
    assert witness in got.solutions


def test_rep_guards():
    with pytest.raises(GuardError):
        solve_representation(ModularInstance((1, 2, 3), 2, 0))


# -- memoryless solver -------------------------------------------------------


def test_memless_exact_rate():
    rng = stream("memrate")
    hits = 0
    trials = 80
    for i in range(trials):
        k = rng.randrange(8, 15)
        r = rng.randrange(3, k)
        inst = random_instance("modular", k, r, rng)
        got = solve_memoryless(inst, seed=i)
        hits += got.solutions == solve_bruteforce(inst).solutions
    assert hits / trials >= 0.95


def test_memless_zero_solutions():
    inst = ModularInstance((2, 4, 6, 8, 10, 12, 14, 16), 1, 1)
    assert solve_memoryless(inst, seed=0).solutions == frozenset()


def test_memless_memory_linear_in_k():
    rng = stream("memcells")
    for _ in range(10):
        k = rng.randrange(8, 15)
        inst = random_instance("modular", k, k - 2, rng)
        got = solve_memoryless(inst, seed=1)
        assert got.mem_peak <= 8 * k


# -- empty interval bounds ------------------------------------------------------


ALL_SOLVERS = (BRUTE, MITM, SS, REP, MEMLESS)


def test_empty_interval_bounds_give_the_empty_set():
    inst = IntervalInstance((3, 5, 6, 7, 1, 2, 4, 9), 16, 8, 5)
    assert inst.bounds() == (1, 1)
    for solver_id in ALL_SOLVERS:
        assert solve(inst, solver_id, seed=1).solutions == frozenset(), solver_id


def test_solvers_agree_on_unplanted_narrow_intervals():
    # r > k + 1 puts the interval width B / 2^(r-1) below 1 for B = 2^k, so
    # unplanted targets often have empty bounds
    rng = stream("narrow-intervals")
    empty = 0
    for k in (8, 10):
        for r in (k + 2, k + 4):
            for _ in range(4):
                inst = random_instance("interval", k, r, rng, plant=False)
                lo, hi = inst.bounds()
                empty += lo == hi
                expect = solve_bruteforce(inst).solutions
                for solver_id in ALL_SOLVERS:
                    assert solve(inst, solver_id, seed=2).solutions == expect, solver_id
    assert empty > 0


# -- dispatch ----------------------------------------------------------------


def test_dispatch_routes_and_agrees():
    rng = stream("dispatch")
    inst = random_instance("modular", 10, 7, rng)
    expect = solve_bruteforce(inst).solutions
    assert solve(inst, BRUTE).solutions == expect
    assert solve(inst, SS).solutions == expect
    assert solve(inst, MITM).solutions == expect
    assert solve(inst, REP, seed=5).solutions == expect


def test_dispatch_unknown_solver():
    rng = stream("dispatchbad")
    inst = random_instance("modular", 8, 5, rng)
    with pytest.raises(ValueError):
        solve(inst, "quantum")


# -- the solution-set format ----------------------------------------------------


def _empty_unplanted(flavor, rng):
    """An unplanted instance with no solution: r = k + 4 leaves 2^k
    subsets among 2^(k+4) modular residues, and interval windows below
    one unit wide."""
    for _ in range(50):
        inst = random_instance(flavor, 10, 14, rng, plant=False)
        if not len(solve_bruteforce(inst)):
            return inst
    raise AssertionError("no unplanted instance without a solution in 50 draws")


@pytest.mark.parametrize("flavor", ["modular", "interval"])
@pytest.mark.parametrize("solver_id", ALL_SOLVERS)
def test_solution_set_is_one_sorted_read_only_mask_array(solver_id, flavor):
    """Every solver hands SolutionSet one format: masks is int64, strictly
    increasing and read-only, solutions is its frozenset and len counts
    it; on a sparse and a dense planted instance (rep's degenerate mode)
    and an unplanted one without a solution."""
    rng = stream("solution-set", solver_id, flavor)
    insts = (random_instance(flavor, 12, 9, rng), random_instance(flavor, 12, 3, rng),
             _empty_unplanted(flavor, rng))
    sparse, dense, empty = sols = [solve(inst, solver_id, seed=3) for inst in insts]
    for inst, sol in zip(insts, sols):
        masks = sol.masks
        assert masks.dtype == np.int64 and masks.ndim == 1
        assert bool(np.all(masks[1:] > masks[:-1]))
        assert not masks.flags.writeable
        assert sol.solutions == frozenset(masks.tolist())
        assert len(sol) == len(masks)
        assert all(inst.check(m) for m in masks.tolist())
    assert len(sparse) > 0 and len(empty) == 0
    if solver_id == REP:
        assert dense.stats["mode"] == "degenerate"
