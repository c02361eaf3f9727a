"""Combination and projection routines: exact laws at the label level."""

import math
import random
from collections import Counter

import pytest

from shiftlab.combine import (
    FAILURE_PROJECTION,
    FAILURE_REJECTION,
    _brute_preimages,
    combine_interval,
    combine_labels,
    combine_pow2,
    project_pair,
)
from shiftlab.errors import BudgetExceededError, ConsumedElementError, GuardError
from shiftlab.group_arith import ceil_log2, two_adic_valuation
from shiftlab.instance import new_instance
from shiftlab.kinds import BRUTE, INTERVAL, MITM, POW2
from shiftlab.phase_sim import statevector_combine_dist
from shiftlab.subset_sum import (
    IntervalInstance,
    ModularInstance,
    random_instance,
    solve_bruteforce,
)
from shiftlab.subset_sum.instances import interval_ancilla, masked_sum, modular_ancilla
from shiftlab.subset_sum.lists import subset_sums

from conftest import chi_square_p, stream


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
    """mitm: one validated subset-sum instance per call, solved once; its
    target is the measured ancilla value and every reported pair solves it.
    brute (k <= 18) reads all of this from one table of subset sums and
    builds no instance, so the instance is rebuilt from the input labels and
    the witness the rng is about to draw, and brute force must agree."""
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
        if solver_id == MITM:
            assert len(built) == len(solved) == call + 1
            problem = built[-1]
            assert solved[-1] is problem
            assert problem.target == out.v_measured
            if out.pair is not None:
                assert all(problem.check(j) for j in out.pair)
            continue
        assert built == solved == []
        if routine == POW2:
            weights = tuple(modular_ancilla(lab, 3) for lab in labels)
            problem = ModularInstance(weights, 3, modular_ancilla(masked_sum(weights, j_star), 3))
        else:
            target = interval_ancilla(masked_sum(labels, j_star), N, 2)
            problem = IntervalInstance(labels, N, 2, target)
        assert problem.target == out.v_measured
        if out.pair is not None:
            assert all(problem.check(j) for j in out.pair)
        assert out.support_size == len(solve_bruteforce(problem))


@pytest.mark.parametrize("flavor", ["modular", "interval"])
def test_core_brute_branch_matches_solve_bruteforce(flavor):
    """The core's brute-force branch against solve_bruteforce on the same
    instance, k = 2..18: same set, op count, memory peak and budget raise."""
    rng = stream("core-brute", flavor)
    for k in range(2, 19):
        for plant in (True, False):
            problem = random_instance(flavor, k, rng.randrange(1, k + 3), rng, plant=plant)
            bounds = problem.bounds() if flavor == "interval" else None
            args = (problem.r, problem.target, bounds)
            ref = solve_bruteforce(problem)
            found, ops, mem = _brute_preimages(subset_sums(problem.weights), *args, None)
            assert found == sorted(ref.solutions)
            assert (ops, mem) == (ref.op_count, ref.mem_peak)

            budget = rng.randrange(1 << k)
            with pytest.raises(BudgetExceededError) as want:
                solve_bruteforce(problem, budget=budget)
            with pytest.raises(BudgetExceededError) as got:
                _brute_preimages(subset_sums(problem.weights), *args, budget)
            assert str(got.value) == str(want.value)


@pytest.mark.parametrize("routine", [POW2, INTERVAL])
def test_core_brute_table_path_matches_instance_path(routine):
    """With equal rng states, brute force's table path and mitm's instance
    path (both exact) give the same witness value, support, pair and label."""
    rng = stream("core-paths", routine)
    N = 1 << 20 if routine == POW2 else 1000003
    for _ in range(300):
        k = rng.randrange(4, 13)
        if routine == POW2:
            r = rng.randrange(1, k)
            a = rng.randrange(0, 20 - r)
            labels = [rng.randrange(N >> a) << a for _ in range(k)]
            where = a
        else:
            r = rng.randrange(1, k - ceil_log2(k) + 1)
            where = rng.choice((N, rng.randrange(2, 1 << 16)))
            labels = [rng.randrange(where) for _ in range(k)]
        state = rng.getstate()
        outs = []
        for solver_id in (BRUTE, MITM):
            coins = random.Random()
            coins.setstate(state)
            out = combine_labels(labels, routine, r, where, N, solver_id, coins, None, 0, None)
            outs.append((out[:4], coins.getstate()))
        assert outs[0] == outs[1]


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
