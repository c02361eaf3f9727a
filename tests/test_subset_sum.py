"""Subset-sum instances, list joins, and the solver suite vs brute force."""

import json
import random

import numpy as np
import pytest

from shiftlab.errors import BudgetExceededError, GuardError
from shiftlab.kinds import BRUTE, INTERVAL, MEMLESS, MITM, POW2, REP, SS
from shiftlab.subset_sum import (
    IntervalConstraint,
    IntervalInstance,
    ModularInstance,
    PartialSumList,
    WindowConstraint,
    instance_from_json,
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
from shiftlab.subset_sum.lists import CONSISTENCY_BINARY, CONSISTENCY_TERNARY, subset_sums
from shiftlab.subset_sum.solvers import expected_solutions, sums_fit

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


def test_instance_json_roundtrip():
    for inst in (
        ModularInstance((5, 1, 7), 3, 6),
        IntervalInstance((3, 5, 6, 7), 8, 2, 2),
    ):
        twin = instance_from_json(inst.to_json())
        assert twin == inst
    with pytest.raises(ValueError):
        instance_from_json(json.dumps({"flavor": "nope"}))


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
    out = merge_join(a, b, WindowConstraint(2, 2), consistency=None)
    got = sorted((int(v), 0) for v in out.values)
    assert [v for v, _ in got] == [2, 2, 2]  # (0,2),(1,1),(2,0)


def test_merge_join_empty_input():
    a = PartialSumList([], [])
    b = _plist([0, 1, 2])
    assert len(merge_join(a, b, WindowConstraint(2, 0), consistency=None)) == 0


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
    allowed = {None: (-1, 0, 1), CONSISTENCY_TERNARY: (-1, 0, 1), CONSISTENCY_BINARY: (0, 1)}
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
    out = merge_join(a, b, cons, consistency=consistency)
    got = sorted(zip(out.values.tolist(), out.plus.tolist(), out.minus.tolist()))
    assert got == _scan_join(ea, eb, cons, consistency), (cons, consistency)
    assert out.values.tolist() == sorted(out.values.tolist())


def test_merge_join_against_quadratic_scan():
    """Windows (plain and wrapping) and intervals under every consistency
    mode, on rep-style lists with minus digits and negative values. Disjoint
    joins take digit vectors on separate positions, as the solvers' splits do;
    the ternary and binary modes draw both sides from the same positions."""
    rng = stream("join")
    n = 12
    weights = [rng.randrange(1, 64) for _ in range(n)]
    for trial in range(90):
        consistency = (None, CONSISTENCY_TERNARY, CONSISTENCY_BINARY)[trial % 3]
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


def test_bruteforce_guard_and_budget():
    with pytest.raises(GuardError):
        solve_bruteforce(ModularInstance((0,) * 31, 1, 0))
    with pytest.raises(BudgetExceededError):
        solve_bruteforce(ModularInstance(tuple(range(20)), 4, 0), budget=10)


def _doubled_sums(weights):
    """Every subset sum by list doubling: entry m sums the weights m selects."""
    sums = [0]
    for w in weights:
        sums += [t + w for t in sums]
    return sums


# m = 8 is the largest single selection-matrix product, 9 the first split,
# 16-18 reach brute force's 18-bit chunk table, 17 up split off 4 high weights
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
        assert got.solutions == want, inst.to_json()
        assert got.op_count == 1 << k
        assert got.mem_peak == chunk + len(want)
        # the budget check after each chunk raises at that chunk's running count
        for budget in (0, chunk - 1, (1 << k) - 1):
            raised_at = chunk * (budget // chunk + 1)
            with pytest.raises(BudgetExceededError, match=f"exceeded at {raised_at}$"):
                solve_bruteforce(inst, budget=budget)
        assert solve_bruteforce(inst, budget=1 << k).solutions == want


@pytest.mark.parametrize("solver", [solve_mitm, solve_schroeppel_shamir])
def test_exact_solvers_match_bruteforce_at_int64_edges(solver):
    """r = 63 (a residue wider than any sum) and interval bounds outside
    int64 once crashed both list merges; they must return brute's set."""
    for k in (4, 12, 20):
        for inst in _brute_cases(k):
            assert solver(inst).solutions == solve_bruteforce(inst).solutions, inst.to_json()


def test_ss_example():
    got = solve_schroeppel_shamir(ModularInstance((1, 2, 3, 4), 3, 3))
    assert got.solutions == frozenset({0b011, 0b100})


@pytest.mark.parametrize("solver", [solve_mitm, solve_schroeppel_shamir])
def test_exact_solvers_match_bruteforce(solver):
    rng = stream("exact", solver.__name__)
    for flavor in ("modular", "interval"):
        for _ in range(60):
            k = rng.randrange(8, 17)
            r = rng.randrange(2, k)
            inst = random_instance(flavor, k, r, rng)
            assert solver(inst).solutions == solve_bruteforce(inst).solutions


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


def test_rep_zero_minus_fraction_degenerates_to_mitm():
    rng = stream("repmf0")
    cases = [
        (random_instance("modular", 12, rng.randrange(3, 12), rng), 0.0) for _ in range(25)
    ]
    # A dense instance takes the same branch at the default minus_fraction.
    dense = random_instance("modular", 14, 5, rng)
    assert expected_solutions(dense) > 64
    cases.append((dense, 1.0 / 16.0))
    for inst, minus_fraction in cases:
        got = solve_representation(inst, depth=2, minus_fraction=minus_fraction)
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


def test_dispatch_budget_error():
    rng = stream("dispatchbudget")
    inst = random_instance("modular", 12, 9, rng)
    with pytest.raises(BudgetExceededError):
        solve(inst, MEMLESS, budget=3)


def test_dispatch_unknown_solver():
    rng = stream("dispatchbad")
    inst = random_instance("modular", 8, 5, rng)
    with pytest.raises(ValueError):
        solve(inst, "quantum")
