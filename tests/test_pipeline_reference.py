"""run_pipeline against the element-level reference engine.

The pipeline runs on int labels and makes a PhaseElement only for the
element it returns; reference_pipeline drives the public combine_pow2 /
combine_interval on elements, one sample_element per raw label. For equal
seeds both must return the same element and charge the same queries and
the same ledger, row for row.
"""

import pytest

from shiftlab import BudgetExceededError, Schedule, StageSpec, new_instance, run_pipeline
from shiftlab.kinds import INTERVAL, MEMLESS, POW2, POW2_TOP, REP, SMALL_ONE, SOLVERS
from shiftlab.pipeline import schedule_uniform

from reference_pipeline import reference_pipeline

SEEDS = range(8)
# one round of rep and a short walk budget for memless keep each solve near
# 5 ms; both engines forward the same solver_params, so equality still holds
SOLVER_PARAMS = {REP: {"max_rounds": 1}, MEMLESS: {"walk_budget": 512}}


def outcome(engine, N, sched, target, seed, **kwargs):
    inst = new_instance(N, seed=seed)
    elem, ledger = engine(inst, sched, target, **kwargs)
    doc = ledger.as_dict()
    del doc["wall_seconds"]
    for row in doc["per_stage"]:
        row.pop("leftover", None)
    return elem.label, elem.scale, elem.consumed, inst.q_queries, doc


def assert_same(N, sched, target, seed, **kwargs):
    got = outcome(run_pipeline, N, sched, target, seed, **kwargs)
    want = outcome(reference_pipeline, N, sched, target, seed, **kwargs)
    assert got == want


@pytest.mark.parametrize("solver_id", SOLVERS)
def test_pow2_pipeline_matches_reference(solver_id):
    # k = 8 is the narrowest width every solver accepts (rep needs k >= 8);
    # level 8 takes two stages, (k, r) = (8, 7) then (8, 1)
    sched = schedule_uniform(9, 8, POW2, solver_id)
    params = SOLVER_PARAMS.get(solver_id)
    for seed in SEEDS:
        assert_same(1 << 9, sched, POW2_TOP, seed, solver_params=params)


@pytest.mark.parametrize("solver_id", SOLVERS)
def test_interval_pipeline_matches_reference(solver_id):
    # bound ladder 263 -> 9 -> 2: two stages
    sched = schedule_uniform(9, 8, INTERVAL, solver_id)
    params = SOLVER_PARAMS.get(solver_id)
    for seed in SEEDS:
        assert_same(263, sched, SMALL_ONE, seed, scale=5, solver_params=params)


def test_level_zero_matches_reference():
    for seed in SEEDS:
        assert_same(64, schedule_uniform(6, 4), POW2_TOP, seed, level=0, scale=3)


def test_brute_past_one_chunk_matches_reference():
    # one k = 20 stage: brute force scans four 2^18 chunks per invocation
    sched = Schedule((StageSpec(20, 3),))
    for seed in range(2):
        assert_same(1 << 8, sched, POW2_TOP, seed, level=3)


def test_budget_raise_matches_reference():
    sched = schedule_uniform(12, 6)
    errors = []
    for engine in (run_pipeline, reference_pipeline):
        inst = new_instance(1 << 12, seed=4)
        with pytest.raises(BudgetExceededError) as info:
            engine(inst, sched, POW2_TOP, budget=40)
        errors.append((str(info.value), inst.q_queries))
    assert errors[0] == errors[1]
