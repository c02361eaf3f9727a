"""Top-level acceptance suite: one test and one printed PASS/FAIL line per
criterion, each at its stated tolerance and runtime bound."""

import math
import time

import pytest

from shiftlab import (
    exponents,
    iqft_success_probability,
    new_instance,
    project_pair,
    recover_odd,
    recover_pow2,
    schedule_single,
    schedule_uniform,
    semiclassical_iqft,
    statevector_combine_dist,
    statevector_generate,
)
from shiftlab.kinds import INTERVAL, MIN_CLASSICAL, POW2, QUAD_GAP, UNIFORM_IMPROVED
from shiftlab.pipeline import CostLedger
from shiftlab.recover import candidate_from_sample
from shiftlab.seeds import derive
from shiftlab.subset_sum import (
    IntervalInstance,
    ModularInstance,
    random_instance,
    solve,
    solve_bruteforce,
)

from brute_oracle import brute_solutions
from conftest import stream

pytestmark = pytest.mark.acceptance


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num} ({name}): {detail}"


def _ceil_log2(k: int) -> int:
    return (k - 1).bit_length()


# ---------------------------------------------------------------------------


def test_criterion_1_table_reproduction():
    reference = {
        (0.291, MIN_CLASSICAL): (0.539, 0.539),
        (0.291, QUAD_GAP): (0.312, 0.623),
        (0.72, MIN_CLASSICAL): (0.849, 0.849),
        (0.72, QUAD_GAP): (0.490, 0.980),
        (1.0, UNIFORM_IMPROVED): (0.707, 1.414),
        (1.0, MIN_CLASSICAL): (1.0, 1.0),
        (1.0, QUAD_GAP): (0.577, 1.155),
        (0.5, UNIFORM_IMPROVED): (0.5, 1.0),
        (0.5, MIN_CLASSICAL): (0.707, 0.707),
        (0.241, QUAD_GAP): (0.283, 0.567),
        (0.241, MIN_CLASSICAL): (0.491, 0.491),
        (0.226, QUAD_GAP): (0.274, 0.549),
        (0.226, MIN_CLASSICAL): (0.475, 0.475),
    }
    t0 = time.perf_counter()
    worst = 0.0
    for (c, strategy), (q, t) in reference.items():
        pt = exponents(c, strategy)
        worst = max(worst, abs(pt.query_exp - q), abs(pt.time_exp - t))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and elapsed < 1.0
    _report(1, "table reproduction", ok,
            f"13 pairs, max |delta| = {worst:.2e}, {elapsed:.3f}s")


def test_criterion_2_solver_oracle_equivalence():
    t0 = time.perf_counter()
    rng = stream("acceptance", "c2")

    exact = {"brute": 0, "mitm": 0, "ss": 0}
    total = 0
    for flavor in ("modular", "interval"):
        for i in range(500):
            k = rng.randrange(8, 21)
            if flavor == "modular":
                r = rng.randrange(1, k)
            else:
                r = rng.randrange(1, k - _ceil_log2(k) + 1)
            inst = random_instance(flavor, k, r, rng)
            oracle = brute_solutions(inst)
            total += 1
            for solver in ("brute", "mitm", "ss"):
                res = solve(inst, solver, seed=derive(41, total, hash(solver) & 0xFF))
                if set(res.solutions) == oracle:
                    exact[solver] += 1

    rep_exact = rep_total = 0
    for i in range(200):
        k = rng.randrange(8, 17)
        inst = random_instance("modular", k, k - 1, rng)
        oracle = brute_solutions(inst)
        res = solve(inst, "rep", seed=derive(43, i))
        rep_total += 1
        rep_exact += set(res.solutions) == oracle

    mem_exact = mem_total = 0
    for i in range(100):
        k = rng.randrange(8, 15)
        inst = random_instance("modular", k, k - 1, rng)
        oracle = brute_solutions(inst)
        res = solve(inst, "memless", seed=derive(47, i))
        mem_total += 1
        mem_exact += set(res.solutions) == oracle

    elapsed = time.perf_counter() - t0
    rep_rate = rep_exact / rep_total
    mem_rate = mem_exact / mem_total
    ok = (
        exact["brute"] == total
        and exact["mitm"] == total
        and exact["ss"] == total
        and rep_rate >= 0.99
        and mem_rate >= 0.95
        and elapsed < 300
    )
    _report(2, "solver oracle equivalence", ok,
            f"brute {exact['brute']}/{total}, mitm {exact['mitm']}/{total}, "
            f"ss {exact['ss']}/{total}, "
            f"rep {rep_rate:.1%}, memless {mem_rate:.1%}, {elapsed:.1f}s")


def test_criterion_3_simulation_exactness():
    t0 = time.perf_counter()
    rng = stream("acceptance", "c3")

    gen_dev = 0.0
    moduli = [1 << n for n in range(1, 11)] + [3, 5, 15, 63, 255, 1001, 1023]
    for N in moduli:
        rep = statevector_generate(new_instance(N, seed=rng.randrange(2**32)))
        gen_dev = max(gen_dev, rep.max_label_dev, rep.max_phase_dev)

    dist_dev = 0.0
    mismatches = 0
    for _ in range(40):
        k = rng.randrange(2, 11)
        r = rng.randrange(1, k)
        labels = tuple(rng.randrange(1 << 10) for _ in range(k))
        dist = statevector_combine_dist(labels, r, POW2)
        residues = tuple(l % (1 << r) for l in labels)
        for v, prob in dist.probs.items():
            sols = solve_bruteforce(ModularInstance(residues, r, v)).solutions
            if set(sols) != set(dist.preimages[v]):
                mismatches += 1
            dist_dev = max(dist_dev, abs(len(sols) / (1 << k) - float(prob)))
    for _ in range(40):
        k = rng.randrange(2, 11)
        r_hi = k - _ceil_log2(k)
        if r_hi < 1:
            continue
        r = rng.randrange(1, r_hi + 1)
        B = rng.randrange(4, 1 << 10)
        labels = tuple(rng.randrange(B) for _ in range(k))
        dist = statevector_combine_dist(labels, r, INTERVAL, B)
        for v, prob in dist.probs.items():
            sols = solve_bruteforce(IntervalInstance(labels, B, r, v)).solutions
            if set(sols) != set(dist.preimages[v]):
                mismatches += 1
            dist_dev = max(dist_dev, abs(len(sols) / (1 << k) - float(prob)))

    elapsed = time.perf_counter() - t0
    ok = gen_dev < 1e-9 and dist_dev < 1e-12 and mismatches == 0 and elapsed < 120
    _report(3, "simulation exactness", ok,
            f"generation dev {gen_dev:.2e}, (V,J) dev {dist_dev:.2e}, "
            f"{mismatches} preimage mismatches, {elapsed:.1f}s")


def test_criterion_4_projection_law():
    t0 = time.perf_counter()
    rng = stream("acceptance", "c4")
    trials = 10**5
    worst = 0.0
    detail = []
    for m in (3, 5, 7):
        support = list(range(0, 3 * m, 3))
        fails = sum(project_pair(support, rng) is None for _ in range(trials))
        freq = fails / trials
        worst = max(worst, abs(freq - 1 / m))
        detail.append(f"|J|={m}: {freq:.4f} vs {1 / m:.4f}")
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.01 and elapsed < 60
    _report(4, "projection law", ok,
            f"{'; '.join(detail)}; max dev {worst:.4f}, {elapsed:.1f}s")


def test_criterion_5_end_to_end_recovery():
    sched_pow2 = schedule_uniform(16, 8)
    good_pow2 = 0
    worst_pow2 = 0.0
    for seed in range(20):
        inst = new_instance(2**16, seed=seed)
        t0 = time.perf_counter()
        try:
            s = recover_pow2(inst, sched_pow2)
        except Exception:
            s = None
        dt = time.perf_counter() - t0
        worst_pow2 = max(worst_pow2, dt)
        good_pow2 += dt < 60 and s == inst.reveal_secret()

    N = 10**6 + 3
    n = (N - 1).bit_length()
    sched_odd = schedule_uniform(n, 12, routine=INTERVAL)
    good_odd = 0
    worst_odd = 0.0
    for seed in range(20):
        inst = new_instance(N, seed=seed)
        t0 = time.perf_counter()
        try:
            s = recover_odd(inst, sched_odd)
        except Exception:
            s = None
        dt = time.perf_counter() - t0
        worst_odd = max(worst_odd, dt)
        good_odd += dt < 300 and s == inst.reveal_secret()

    ok = good_pow2 >= 19 and good_odd >= 18
    _report(5, "end-to-end recovery", ok,
            f"pow2 {good_pow2}/20 (slowest {worst_pow2:.1f}s), "
            f"odd {good_odd}/20 (slowest {worst_odd:.1f}s)")


def test_criterion_6_min_query_regime():
    def mean_q(n: int, runs: int = 10) -> float:
        total = 0
        for seed in range(runs):
            inst = new_instance(1 << n, seed=derive(6, n, seed))
            ledger = CostLedger()
            s = recover_pow2(inst, schedule_single(n), ledger=ledger)
            assert s == inst.reveal_secret()
            total += ledger.q_queries
        return total / runs

    C = mean_q(10) / 10**2
    ratios = {n: mean_q(n) / (C * n**2) for n in (12, 14)}
    ok = all(r <= 2.0 for r in ratios.values())
    _report(6, "min-query regime", ok,
            f"C = {C:.2f} (fit at n=10); q/(C n^2) = "
            + ", ".join(f"{r:.2f} at n={n}" for n, r in ratios.items()))


def test_criterion_7_scaling_slopes():
    rng = stream("acceptance", "c7")
    ks = (16, 20, 24, 28)

    def slope_for(solver: str) -> float:
        ys = []
        for k in ks:
            ops = []
            for i in range(9):
                inst = random_instance("modular", k, k - 1, rng)
                ops.append(solve(inst, solver, seed=derive(7, k, i)).op_count)
            ops.sort()
            ys.append(math.log2(ops[len(ops) // 2]))
        mx = sum(ks) / len(ks)
        my = sum(ys) / len(ys)
        return sum((x - mx) * (y - my) for x, y in zip(ks, ys)) / sum(
            (x - mx) ** 2 for x in ks
        )

    brute_slope = slope_for("brute")
    ss_slope = slope_for("ss")
    ok = abs(brute_slope - 1.0) <= 0.15 and abs(ss_slope - 0.5) <= 0.15
    _report(7, "scaling slopes", ok,
            f"brute {brute_slope:.3f} (want 1.0), ss {ss_slope:.3f} (want 0.5)")


def test_criterion_8_iqft_peak():
    trials = 10**4
    detail = []
    ok = True

    for N, s in ((15, 7), (101, 37), (4001, 1234)):
        n_q = (N - 1).bit_length() + 2
        p = iqft_success_probability(s, N, n_q)
        inst = new_instance(N, s=s, seed=8)
        hits = 0
        for _ in range(trials):
            elems = [inst.derive_element(pow(2, j, N)) for j in range(n_q)]
            sample = semiclassical_iqft(elems, inst)
            hits += candidate_from_sample(sample, N, n_q) == s
        freq = hits / trials
        sigma = math.sqrt(p * (1 - p) / trials)
        ok = ok and abs(freq - p) <= 3 * sigma and p >= 0.405
        detail.append(f"N={N}: {freq:.4f} vs {p:.4f} (3s = {3 * sigma:.4f})")

    # the computed peak stays above the worst-case floor across odd N
    peak_min = 1.0
    for N in list(range(3, 102, 2)) + [999, 2001, 3001, 4001]:
        n_q = (N - 1).bit_length() + 2
        for s in {0, 1, N // 2, N - 1}:
            peak_min = min(peak_min, iqft_success_probability(s, N, n_q))
    ok = ok and peak_min >= 0.405
    _report(8, "iqft peak", ok,
            f"{'; '.join(detail)}; computed peak min {peak_min:.4f} >= 0.405")
