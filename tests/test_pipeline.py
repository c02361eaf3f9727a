"""Schedule builders and the element-production pipeline."""

import ast
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest

import shiftlab.pipeline as pipeline_module
from shiftlab import (
    AccountingError,
    CostLedger,
    GuardError,
    Schedule,
    StageSpec,
    new_instance,
    recover_odd,
    run_pipeline,
    schedule_affine,
    schedule_from_json,
    schedule_increasing,
    schedule_single,
    schedule_uniform,
    two_adic_valuation,
)
from shiftlab.kinds import BRUTE, INTERVAL, MITM, POW2, REP, SOLVER_WIDTHS, SS
from shiftlab.pipeline import Pipeline
from shiftlab.subset_sum import solvers

from conftest import stream


# ---------------------------------------------------------------------------
# static structure: StageSpec / Schedule


def test_stage_spec_guards():
    with pytest.raises(GuardError):
        StageSpec(1, 1)
    with pytest.raises(GuardError):
        StageSpec(4, 0)
    with pytest.raises(GuardError):
        StageSpec(4, 4)
    with pytest.raises(GuardError):
        StageSpec(4, 2, routine="triangle")
    with pytest.raises(TypeError):
        StageSpec(4.5, 2)
    with pytest.raises(TypeError):
        StageSpec(4, True)


def test_schedule_guards_and_total():
    with pytest.raises(GuardError):
        Schedule(())
    with pytest.raises(GuardError):
        Schedule((StageSpec(4, 3),), solver_id="oracle")
    # widths its solver refuses: brute takes 2 <= k <= 30, ss k >= 4, rep k >= 8
    for solver_id, k in ((BRUTE, 31), (SS, 3), (REP, 7)):
        with pytest.raises(GuardError, match=f"stage 1: solver {solver_id} needs"):
            Schedule((StageSpec(8, 1), StageSpec(k, 1)), solver_id)
    for solver_id, (lo, hi) in SOLVER_WIDTHS.items():
        Schedule((StageSpec(lo, 1), StageSpec(hi or 64, 1)), solver_id)
    sched = Schedule((StageSpec(4, 3), StageSpec(6, 2)))
    assert sched.total_r == 5


def test_schedule_json_roundtrip():
    sched = schedule_uniform(16, 5)
    doc = sched.to_json_dict()
    assert sched == schedule_from_json(doc)
    mixed = Schedule(
        (StageSpec(8, 5, INTERVAL), StageSpec(6, 3, INTERVAL)),
        solver_id="mitm",
        params={"note": 1},
    )
    assert mixed == schedule_from_json(mixed.to_json_dict())


def test_schedule_describe_mentions_each_stage():
    sched = schedule_uniform(16, 5)
    text = sched.describe()
    assert text.count("stage ") == len(sched.stages)
    assert "total r: 16" in text


# ---------------------------------------------------------------------------
# builders


def test_uniform_pow2_shapes():
    sched = schedule_uniform(16, 5)
    assert len(sched.stages) == 4
    assert all(s.k == 5 and s.r == 4 and s.routine == POW2 for s in sched.stages)

    one = schedule_uniform(16, 16)
    assert len(one.stages) == 1
    assert one.stages[0].r == 15


def test_uniform_interval_shapes():
    sched = schedule_uniform(16, 8, routine=INTERVAL)
    # r = k - ceil(log2 k) = 5, so ceil(15/5) = 3 stages
    assert [(s.k, s.r) for s in sched.stages] == [(8, 5)] * 3


def test_uniform_guards():
    with pytest.raises(GuardError):
        schedule_uniform(16, 1)
    with pytest.raises(GuardError):
        schedule_uniform(16, 31)
    with pytest.raises(GuardError):
        schedule_uniform(1, 4)


def test_increasing_widths_small_cases():
    # step = log2(n)/(2c); widths i*step rounded, floored at 2
    assert [s.k for s in schedule_increasing(16, 1.0).stages] == [2, 4, 6, 8]
    assert [s.k for s in schedule_increasing(16, 0.5).stages] == [4, 8, 12]


def test_increasing_covers_n_minus_one():
    # mitm caps no width; brute refuses the k > 30 stages of the larger n
    for n in (8, 16, 33, 64, 200):
        for c in (1.0, 0.72, 0.5, 0.291):
            sched = schedule_increasing(n, c, solver_id=MITM)
            assert sched.total_r >= n - 1
            assert all(2 <= s.k <= 64 for s in sched.stages)
            # dropping the last stage must leave a gap
            assert sched.total_r - sched.stages[-1].r < n - 1


def test_increasing_guards():
    with pytest.raises(GuardError):
        schedule_increasing(1, 1.0)
    with pytest.raises(GuardError):
        schedule_increasing(16, 0.0)
    with pytest.raises(GuardError):
        schedule_increasing(16, 1.5)


def test_affine_beta_zero_matches_increasing():
    for n in (12, 25, 40):
        assert schedule_affine(n, 1.0, beta=0.0).stages == schedule_increasing(n, 1.0).stages


def test_affine_default_beta_and_widths():
    sched = schedule_affine(25, 1.0)
    assert sched.params["beta"] == pytest.approx(1 / math.sqrt(3))
    # offset = sqrt(25*log2(25))/sqrt(3) ~ 6.22, step ~ 2.32
    assert [s.k for s in sched.stages] == [9, 11, 13]


def test_affine_large_beta_means_fewer_stages():
    plain = schedule_increasing(40, 1.0, solver_id=MITM)
    wide = schedule_affine(40, 1.0, beta=4.0, solver_id=MITM)  # k = 64: past brute's cap
    assert len(wide.stages) < len(plain.stages)
    assert wide.stages[0].k > plain.stages[0].k


def test_affine_guards():
    with pytest.raises(GuardError):
        schedule_affine(16, 1.0, beta=-0.1)
    with pytest.raises(GuardError):
        schedule_affine(16, 0.0)
    # not finite, or a finite beta whose stage widths overflow
    for beta in (math.nan, math.inf, 1e308):
        with pytest.raises(GuardError):
            schedule_affine(16, 0.5, beta=beta)


def test_single_stage_shape_and_guard():
    sched = schedule_single(12)
    assert [(s.k, s.r) for s in sched.stages] == [(13, 11)]
    with pytest.raises(GuardError):
        schedule_single(31)
    with pytest.raises(GuardError):
        schedule_single(1)


# ---------------------------------------------------------------------------
# running the pipeline, power-of-two side


def test_pow2_top_element_over_seeds():
    sched = schedule_uniform(8, 4)
    for seed in range(20):
        inst = new_instance(N=256, seed=seed)
        elem, ledger = run_pipeline(inst, sched)
        assert two_adic_valuation(elem.label) == 7
        assert not elem.consumed
        assert ledger.q_queries == inst.q_queries
        assert ledger.elements_generated == ledger.q_queries
        ledger.check_consistent()


def test_pow2_stage_rows_match_plan():
    inst = new_instance(N=256, seed=3)
    sched = schedule_uniform(8, 4)  # r=3 per stage
    _, ledger = run_pipeline(inst, sched)
    rows = ledger.per_stage
    # level 7 covered as 3 + 3 + 1: the last stage is clipped
    assert [(row.k, row.r) for row in rows] == [(4, 3), (4, 3), (4, 1)]
    for row in rows:
        assert row.invocations == row.successes + row.failures
        assert row.consumed == row.k * row.invocations


def test_pow2_schedule_shorter_than_level_reuses_last_stage():
    inst = new_instance(N=2**10, seed=5)
    sched = Schedule((StageSpec(4, 3),))
    _, ledger = run_pipeline(inst, sched)
    assert [row.r for row in ledger.per_stage] == [3, 3, 3]


def test_pow2_explicit_level():
    inst = new_instance(N=2**10, seed=1)
    sched = schedule_uniform(10, 4)
    elem, ledger = run_pipeline(inst, sched, level=3)
    assert two_adic_valuation(elem.label) == 3
    assert len(ledger.per_stage) == 1 and ledger.per_stage[0].r == 3


def test_pow2_level_zero_needs_no_stages():
    inst = new_instance(N=64, seed=2)
    elem, ledger = run_pipeline(inst, schedule_uniform(6, 4), level=0)
    assert elem.label % 2 == 1
    assert ledger.per_stage == []
    assert ledger.q_queries >= 1
    assert ledger.q_queries == ledger.raw_discarded + 1


def test_pow2_single_stage_run():
    inst = new_instance(N=2**10, seed=4)
    elem, ledger = run_pipeline(inst, schedule_single(10))
    assert two_adic_valuation(elem.label) == 9
    assert {(row.k, row.r) for row in ledger.per_stage} == {(11, 9)}


def test_top_element_measures_secret_parity():
    # at valuation n-1 the phase angle is s/2 mod 1, a deterministic readout
    for seed in range(8):
        inst = new_instance(N=256, seed=seed)
        elem, _ = run_pipeline(inst, schedule_uniform(8, 5))
        bit, p0 = inst.measure_element(elem)
        assert p0 in (0.0, 1.0)
        assert bit == inst.reveal_secret() % 2


def test_pow2_success_rate_at_least_quarter():
    total_inv = 0
    total_succ = 0
    for seed in range(10):
        inst = new_instance(N=2**16, seed=seed)
        _, ledger = run_pipeline(inst, schedule_uniform(16, 8))
        total_inv += sum(row.invocations for row in ledger.per_stage)
        total_succ += sum(row.successes for row in ledger.per_stage)
    assert total_succ / total_inv >= 0.25


def test_query_count_grows_geometrically_with_depth():
    """Mean raw queries per top element should fit q ~ A * g^m on stage count m."""
    k = 4
    r = k - 1
    means = []
    depths = [2, 3, 4, 5]
    for m in depths:
        n = m * r + 1
        qs = []
        for seed in range(12):
            inst = new_instance(N=1 << n, seed=seed)
            _, ledger = run_pipeline(inst, schedule_uniform(n, k))
            qs.append(ledger.q_queries)
        means.append(sum(qs) / len(qs))
    ys = [math.log2(v) for v in means]
    xbar = sum(depths) / len(depths)
    ybar = sum(ys) / len(ys)
    sxx = sum((x - xbar) ** 2 for x in depths)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(depths, ys)) / sxx
    ss_res = sum((y - (ybar + slope * (x - xbar))) ** 2 for x, y in zip(depths, ys))
    ss_tot = sum((y - ybar) ** 2 for y in ys)
    assert ys == sorted(ys)
    assert 1 - ss_res / ss_tot >= 0.95
    assert slope > 1.0  # each extra stage multiplies queries by more than 2x


def test_run_is_reproducible_with_explicit_seeds():
    def one_run():
        inst = new_instance(N=2**12, seed=9)
        elem, ledger = run_pipeline(
            inst,
            schedule_uniform(12, 6),
            rng=random.Random(7),
        )
        return elem.label, ledger.q_queries, ledger.solver_ops

    assert one_run() == one_run()


def test_default_rngs_derive_from_instance_seed():
    def one_run():
        inst = new_instance(N=2**10, seed=31)
        elem, ledger = run_pipeline(inst, schedule_uniform(10, 5))
        return elem.label, ledger.q_queries, ledger.solver_ops

    assert one_run() == one_run()


# ---------------------------------------------------------------------------
# running the pipeline, odd side


def test_small_one_run_and_ladder():
    sched = schedule_uniform(12, 8, routine=INTERVAL)  # r = 5
    for seed in range(5):
        inst = new_instance(N=4001, seed=seed)
        elem, ledger = run_pipeline(inst, sched)
        assert elem.label == 1
        assert ledger.q_queries == inst.q_queries
        # bound ladder 4001 -> 126 -> 4 -> 2, last r clipped to 1
        assert [(row.b_in, row.r) for row in ledger.per_stage] == [
            (4001, 5),
            (126, 5),
            (4, 1),
        ]
        ledger.check_consistent()


def test_small_one_scale_changes_true_label_only():
    inst = new_instance(N=4001, seed=1)
    sched = schedule_uniform(12, 8, routine=INTERVAL)
    elem, _ = run_pipeline(inst, sched, scale=17, rng=stream("scale"))
    assert elem.label == 1
    assert elem.scale == 17
    assert elem.true_label == 17


# ---------------------------------------------------------------------------
# guards and failure plumbing


def test_modulus_and_routine_guards():
    # N picks the ladder, power-of-two stages for N = 2^n and interval
    # stages for odd N: the Pipeline itself refuses any other N, and a
    # schedule with a stage of the other routine, even one that the level
    # asked for (3, one stage) never reaches, before a label is drawn
    mixed = schedule_from_json({"stages": [
        {"k": 4, "r": 3, "routine": POW2}, {"k": 4, "r": 3, "routine": INTERVAL},
    ]})
    for N, sched, kwargs, match in (
        (255, schedule_uniform(8, 4), {}, "needs a schedule of interval stages only"),
        (256, schedule_uniform(8, 4, routine=INTERVAL), {}, "needs a schedule of pow2 stages only"),
        (256, mixed, {"level": 3}, "needs a schedule of pow2 stages only"),
        (12, schedule_uniform(4, 2), {}, "neither a power of two nor odd"),
    ):
        inst = new_instance(N=N, seed=0)
        with pytest.raises(GuardError, match=match):
            Pipeline(inst, sched)
        with pytest.raises(GuardError, match=match):
            run_pipeline(inst, sched, **kwargs)
        assert inst.q_queries == 0


def test_interval_plan_refuses_int64_overflow_before_sampling():
    inst = new_instance(N=2**61 - 1, seed=0)
    with pytest.raises(GuardError, match="64-bit partial sums"):
        run_pipeline(inst, schedule_uniform(61, 12, routine=INTERVAL))
    assert inst.q_queries == 0


def test_level_guards():
    inst = new_instance(N=256, seed=0)
    sched = schedule_uniform(8, 4)
    with pytest.raises(GuardError):
        run_pipeline(inst, sched, level=8)
    with pytest.raises(GuardError):
        run_pipeline(inst, sched, level=-1)
    odd_inst = new_instance(N=255, seed=0)
    int_sched = schedule_uniform(8, 4, routine=INTERVAL)
    with pytest.raises(GuardError):
        run_pipeline(odd_inst, int_sched, level=3)


# ---------------------------------------------------------------------------
# accounting identities


def test_corrupted_ledger_raises_accounting_error():
    with pytest.raises(AccountingError, match="query/element"):
        CostLedger(q_queries=5, elements_generated=3).check_consistent()
    _, ledger = run_pipeline(new_instance(N=256, seed=1), schedule_uniform(8, 4))
    ledger.per_stage[0].produced += 1
    with pytest.raises(AccountingError, match="stage 0"):
        ledger.check_consistent()


def test_corrupted_memory_peak_raises_accounting_error():
    _, ledger = run_pipeline(new_instance(N=256, seed=1), schedule_uniform(8, 4))
    ledger.check_consistent()
    ledger.mem_peak_cells += 1
    with pytest.raises(AccountingError, match="memory peak"):
        ledger.check_consistent()
    ledger.mem_peak_cells -= 1
    ledger.per_stage[-1].mem_peak = ledger.mem_peak_cells + 1
    with pytest.raises(AccountingError, match="memory peak"):
        ledger.check_consistent()
    with pytest.raises(AccountingError, match="memory peak"):
        CostLedger(mem_peak_cells=1).check_consistent()


def test_ledger_rows_are_the_plan_fresh_per_element():
    # an element's plan is its ledger rows: a power-of-two row carries its
    # input valuation a, the r of the rows below it, and an interval row
    # its input bound b_in instead; each element gets rows of its own, so
    # a recovery's merged ledger holds no row twice and still sums to its
    # totals
    _, ledger = run_pipeline(new_instance(N=2**10, seed=5), schedule_uniform(10, 4))
    rows = ledger.per_stage
    assert [row.a for row in rows] == [sum(low.r for low in rows[:i]) for i in range(len(rows))]
    assert [row.b_in for row in rows] == [None] * 3
    inst = new_instance(N=4001, seed=1)
    ledger = CostLedger()
    s = recover_odd(inst, schedule_uniform(12, 8, routine=INTERVAL), ledger=ledger)
    assert s == inst.reveal_secret()
    rows = ledger.per_stage
    assert len(rows) > 3 and all(row.a is None and row.b_in > 2 for row in rows)
    assert len({id(row) for row in rows}) == len(rows)
    assert ledger.solver_ops == sum(row.solver_ops for row in rows)
    assert ledger.mem_peak_cells == max(row.mem_peak for row in rows)


def test_accounting_identities_hold_under_python_O():
    code = (
        "from shiftlab import AccountingError, CostLedger\n"
        "bad = CostLedger(q_queries=5, elements_generated=3), CostLedger(mem_peak_cells=1)\n"
        "for ledger in bad:\n"
        "    try:\n"
        "        ledger.check_consistent()\n"
        "    except AccountingError:\n"
        "        print('raised')\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().split() == ["raised", "raised"]


# ---------------------------------------------------------------------------
# module structure


def test_pipeline_module_binds_no_mutable_state():
    # pipeline.py binds nothing at module level but imports, definitions
    # and constant arithmetic, and declares no global: state shared by
    # every Pipeline in the process would let one recovery's waves or
    # rows leak into another's
    tree = ast.parse(pathlib.Path(pipeline_module.__file__).read_text(encoding="utf-8"))
    constant = (ast.Constant, ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop)
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            assert all(isinstance(n, constant) for n in ast.walk(node.value)), ast.unparse(node)
        elif isinstance(node, ast.Expr):
            assert isinstance(node.value, ast.Constant), ast.unparse(node)
        else:
            defs = (ast.Import, ast.ImportFrom, ast.FunctionDef, ast.ClassDef)
            assert isinstance(node, defs), ast.unparse(node)
    assert not any(isinstance(n, (ast.Global, ast.Nonlocal)) for n in ast.walk(tree))


def test_kernel_widths_stay_within_the_brute_force_charge():
    # the kernel charges a row 2^k + |J| cells, which is solve_bruteforce's
    # charge only up to BRUTE_TABLE_BITS
    assert pipeline_module.KERNEL_K_MAX <= solvers.BRUTE_TABLE_BITS
