"""run_pipeline and Pipeline against the element-level reference engine.

The pipeline runs on int labels and makes a PhaseElement only for the
element it returns; with brute force it builds stage 0's subset-sum tables
in waves from peeked labels. A Pipeline keeps its wave from one element to
the next; run_pipeline is a Pipeline asked for one element, so its waves
last for one call. reference_pipeline drives the public combine_pow2 /
combine_interval on elements, one sample_element per raw label; the
elements of one Pipeline are compared with reference_pipeline calls that
share one rng, as the Pipeline's elements do. For equal seeds both must
return the same element, charge the same queries and the same ledger, row
for row, and leave the instance's label stream at the same place: peeking
ahead consumes nothing.
"""

import dataclasses
import random
import re

import numpy as np
import pytest

import reference_pipeline as reference_module
import shiftlab.combine as combine_module
import shiftlab.pipeline as pipeline_module
from shiftlab import (
    AccountingError,
    RetryExhaustedError,
    Schedule,
    StageSpec,
    new_instance,
    run_pipeline,
)
from shiftlab.kinds import INTERVAL, MITM, POW2, SOLVERS
from shiftlab.instance import LABEL_BATCH
from shiftlab.pipeline import Pipeline, _wave_rows, schedule_uniform
from shiftlab.recover import recover_pow2
from shiftlab.seeds import derive, label_path

from reference_pipeline import reference_pipeline

SEEDS = range(8)


def result(inst, elem, ledger):
    doc = dataclasses.asdict(ledger)
    del doc["wall_seconds"]
    return elem.label, elem.scale, elem.consumed, inst.q_queries, doc


def sequence(engine, N, seed, steps):
    """The results of steps on one instance, and the next 3 labels of its
    stream after them: a step is an engine call (sched, kwargs), or
    n, a stray sample_labels(n)."""
    inst = new_instance(N, seed=seed)
    results = []
    for step in steps:
        if isinstance(step, int):
            results.append(inst.sample_labels(step).tolist())
        else:
            sched, kwargs = step
            results.append(result(inst, *engine(inst, sched, **kwargs)))
    return results, inst.sample_labels(3).tolist()


def outcome(engine, N, sched, seed, calls=1, **kwargs):
    """The results of `calls` consecutive engine calls on one instance, and
    the next 3 labels of its stream after them."""
    return sequence(engine, N, seed, [(sched, kwargs)] * calls)


def assert_same_sequence(N, seed, steps):
    got = sequence(run_pipeline, N, seed, steps)
    assert got == sequence(reference_pipeline, N, seed, steps)


def elements(inst, sched, reference=False):
    """The element function of one Pipeline on inst, or with reference, of
    reference_pipeline calls that share one rng seeded as the Pipeline's
    default."""
    if not reference:
        return Pipeline(inst, sched).element
    rng = random.Random(derive(inst.seed, label_path("pipeline")))
    return lambda **kwargs: reference_pipeline(inst, sched, rng, **kwargs)


def element_sequence(N, seed, sched, steps, reference=False):
    """sequence's results with each step an element of one Pipeline (or its
    reference): a step is the element's kwargs, or n, a stray
    sample_labels(n)."""
    inst = new_instance(N, seed=seed)
    element = elements(inst, sched, reference)
    results = [
        inst.sample_labels(step).tolist() if isinstance(step, int)
        else result(inst, *element(**step))
        for step in steps
    ]
    return results, inst.sample_labels(3).tolist()


def assert_same_elements(N, seed, sched, steps):
    got = element_sequence(N, seed, sched, steps)
    assert got == element_sequence(N, seed, sched, steps, reference=True)


def raised(engine, N, sched, seed, **kwargs):
    """The error an engine call raises, the queries charged until then, the
    next 3 labels of the stream and the stage its message names as giving
    up (None for the top candidates)."""
    inst = new_instance(N, seed=seed)
    with pytest.raises(RetryExhaustedError) as info:
        engine(inst, sched, **kwargs)
    named = re.match(r"stage (\d+) ", str(info.value))
    stage = int(named[1]) if named else None
    return info.type, inst.q_queries, inst.sample_labels(3).tolist(), stage


def mid_wave(invocations, k):
    """Whether the first call on an instance, having run this many stage-0
    invocations, stopped with rows of its current wave unused: waves hold
    1, 2, 4, ... rows up to _wave_rows(k), so a full wave ends after
    2^j - 1 invocations early on, and at a multiple of the cap past that."""
    cap = _wave_rows(k)
    ramp = cap.bit_length() - 1  # waves before the first full one
    if invocations < (1 << ramp) - 1 + cap:
        return (invocations + 1) & invocations != 0
    return (invocations - ((1 << ramp) - 1)) % cap != 0


def assert_same(N, sched, seed, **kwargs):
    got = outcome(run_pipeline, N, sched, seed, **kwargs)
    want = outcome(reference_pipeline, N, sched, seed, **kwargs)
    assert got == want


@pytest.mark.parametrize("solver_id", SOLVERS)
def test_pow2_pipeline_matches_reference(solver_id):
    # k = 8 is the narrowest width every solver accepts (rep needs k >= 8);
    # level 8 takes two stages, (k, r) = (8, 7) then (8, 1)
    sched = schedule_uniform(9, 8, POW2, solver_id)
    for seed in SEEDS:
        assert_same(1 << 9, sched, seed)


@pytest.mark.parametrize("solver_id", SOLVERS)
def test_interval_pipeline_matches_reference(solver_id):
    # bound ladder 263 -> 9 -> 2: two stages
    sched = schedule_uniform(9, 8, INTERVAL, solver_id)
    for seed in SEEDS:
        assert_same(263, sched, seed, scale=5)


def test_reference_does_not_run_the_kernel(monkeypatch):
    # the oracle combines brute force through the solver path, so a broken
    # run kernel cannot hide by breaking both engines the same way
    def broken(*args):
        raise AssertionError("the reference ran combine.brute_run")

    monkeypatch.setattr(combine_module, "brute_run", broken)
    for N, sched, label in (
        (1 << 9, schedule_uniform(9, 8), 1 << 8),
        (263, schedule_uniform(9, 8, INTERVAL), 1),
    ):
        inst = new_instance(N, seed=1)
        elem, ledger = reference_pipeline(inst, sched)
        assert elem.label == label
        assert ledger.q_queries > 0


def test_level_zero_matches_reference():
    for seed in SEEDS:
        assert_same(64, schedule_uniform(6, 4), seed, level=0, scale=3)


def test_brute_past_one_chunk_matches_reference():
    # one k = 20 stage: brute force scans four 2^18 chunks per invocation
    sched = Schedule((StageSpec(20, 3),))
    for seed in range(2):
        assert_same(1 << 8, sched, seed, level=3)


KERNEL, SOLVER = (4, 3), (20, 3)  # brute force on the run kernel, through combine_labels


@pytest.mark.parametrize("N,stages,routine,kwargs", [
    (1 << 8, (KERNEL, SOLVER), POW2, {"level": 6}),
    (1 << 8, (SOLVER, KERNEL), POW2, {"level": 6}),
    # bound ladders 63 -> 16 -> 2 and 63 -> 8 -> 2
    (63, ((4, 2), SOLVER), INTERVAL, {"scale": 3}),
    (63, (SOLVER, (4, 2)), INTERVAL, {"scale": 3}),
], ids=["pow2-kernel-first", "pow2-solver-first", "interval-kernel-first",
        "interval-solver-first"])
def test_kernel_and_solver_stages_mixed_match_reference(N, stages, routine, kwargs):
    # one brute-force schedule whose k = 4 stage runs on the kernel and
    # whose k = 20 stage makes combine_labels calls, in both orders: a
    # solver stage fed by stage-0 waves, and a one-row kernel stage fed
    # by a solver stage
    sched = Schedule(tuple(StageSpec(k, r, routine) for k, r in stages))
    for seed in range(2):
        assert_same(N, sched, seed, **kwargs)


def test_stage_zero_spanning_full_waves_matches_reference():
    # k = 4: waves ramp from 1 to 2048 rows, and this call's 16,692 stage-0
    # invocations run through seven full-cap waves
    sched = schedule_uniform(22, 4)
    got = outcome(run_pipeline, 1 << 22, sched, 0)
    assert got == outcome(reference_pipeline, 1 << 22, sched, 0)
    invocations = got[0][0][4]["per_stage"][0]["invocations"]
    assert invocations > (1 << 11) - 1 + 2 * _wave_rows(4)
    assert mid_wave(invocations, 4)


@pytest.mark.parametrize("k,rows", [(4, 2048), (8, 128), (10, 32), (12, 32), (14, 8), (18, 1)])
def test_wave_rows_per_width(k, rows):
    # no width holds fewer rows than 2^15 cells give it, k = 12 holds 32,
    # and no wave of more than one row passes 2^17 cells; built waves ramp
    # 1, 2, 4, ... up to that and stay there
    assert _wave_rows(k) == rows
    assert rows >= (1 << 15) >> k and (rows == 1 or rows << k <= 1 << 17)
    inst = new_instance(1 << 20, seed=k)
    wave = pipeline_module._Wave(k, np.int32)
    built = []
    for _ in range(rows.bit_length() + 1):
        wave.build(inst)
        built.append(wave.table.shape)
    assert built == [(min(1 << w, rows), 1 << k) for w in range(len(built))]
    assert inst.q_queries == 0


def test_interval_k12_first_call_crossing_full_waves_matches_reference(waves):
    # odd N, k = 12: waves ramp 1, 2, 4, 8, 16 and then hold 32 rows; the
    # first call runs through at least three full 32-row waves
    sched = schedule_uniform(20, 12, INTERVAL)
    for seed in range(2):
        waves.clear()
        got = outcome(run_pipeline, 1000003, sched, seed, scale=3)
        assert got == outcome(reference_pipeline, 1000003, sched, seed, scale=3)
        assert waves[:6] == [1, 2, 4, 8, 16, 32]
        assert waves.count(32) >= 4
        invocations = got[0][0][4]["per_stage"][0]["invocations"]
        assert invocations > 31 + 3 * 32


def test_consecutive_calls_on_one_instance_match_reference():
    # the second call starts where the first call's draws, not its peeks,
    # left the stream
    for seed in range(4):
        for N, sched, kwargs in (
            (1 << 12, schedule_uniform(12, 6), {}),
            (1000003, schedule_uniform(20, 12, INTERVAL), {"scale": 7}),
        ):
            got = outcome(run_pipeline, N, sched, seed, calls=2, **kwargs)
            assert got == outcome(reference_pipeline, N, sched, seed, calls=2, **kwargs)


def test_descending_levels_share_waves_and_match_reference(waves):
    # levels 11 down to 1 as elements of one Pipeline, as recover_pow2 asks
    # for them: stage 0's r is 5 down to level 5, then 4, 3, 2, 1, all read
    # from the same waves, which keep doubling across elements instead of
    # restarting at one row
    sched = schedule_uniform(12, 6)
    steps = [{"level": j} for j in range(11, 0, -1)]
    for seed in range(4):
        waves.clear()
        assert_same_elements(1 << 12, seed, sched, steps)
        assert waves == [1 << w for w in range(len(waves))]
        assert len(waves) < len(steps)


@pytest.mark.parametrize("N,k,levels,dtype", [
    # int64 sums, walked as residue bytes at r = 7 and below
    (1 << 40, 8, (13, 9, 7, 5, 3, 1), np.int64),
    # k * (N - 1) past sums_fit: int64 sums that wrap mod 2^64
    (1 << 62, 8, (12, 9, 7, 4, 1), np.int64),
    # r = 8, the widest residue a byte holds
    (1 << 24, 9, (16, 8, 6, 2), np.int32),
    # r = 9: the numpy scan on a copy of each row, then bytes below
    (1 << 40, 10, (18, 9, 8, 4), np.int64),
    # r = 11: the numpy scan on wrapped rows, and at stage 1 on bits 11..21
    (1 << 62, 12, (22, 11, 9, 5), np.int64),
], ids=["int64-full", "int64-wrap", "r8-bytes", "r9-scan", "r11-wrap-scan"])
def test_wave_paths_over_descending_levels_match_reference(waves, N, k, levels, dtype):
    # descending levels as elements of one Pipeline: the waves never
    # restart at one row, so a wave that outlives its element serves the
    # next element's r
    sched = schedule_uniform(N.bit_length() - 1, k)
    steps = [{"level": j} for j in levels]
    for seed in range(3):
        waves.clear()
        assert_same_elements(N, seed, sched, steps)
        assert waves.count(1) == 1
        pipeline = Pipeline(new_instance(N, seed=seed), sched)
        pipeline.element(level=1)
        assert pipeline.wave.table.dtype == dtype


def test_pow2_k8_stage_zero_makes_no_numpy_scan_or_masked_sum(monkeypatch):
    # 20 recoveries of the benchmark's pow2-k8 shape: every stage-0 run
    # walks its rows' residue bytes for its preimages, so it makes no numpy
    # scan; the one-row runs of stages >= 1, which pass no residue bytes,
    # scan their own tables; every run reads its output labels from its
    # rows, so no brute_run call makes a masked_sum call
    calls = {"stage0": 0, "later": 0, "masked_sum": 0}
    in_run = []
    real_sum = combine_module.masked_sum

    def counted(*args):
        calls["masked_sum"] += bool(in_run)
        return real_sum(*args)

    monkeypatch.setattr(combine_module, "masked_sum", counted)
    real_run = pipeline_module.brute_run

    def counted_run(*args):
        residues = args[10] if len(args) > 10 else None
        if residues is None:  # a later stage's one-row run
            assert len(args[0]) == 1
        else:
            assert isinstance(residues, bytes)
        in_run.append(1)
        try:
            out = real_run(*args)
        finally:
            in_run.pop()
        calls["later" if residues is None else "stage0"] += out[1]
        return out

    monkeypatch.setattr(pipeline_module, "brute_run", counted_run)
    sched = schedule_uniform(16, 8)
    for unit in range(20):
        inst = new_instance(1 << 16, seed=derive(1, unit))
        assert recover_pow2(inst, sched) == inst.reveal_secret()
    assert calls["stage0"] > 5000 and calls["later"] > 500
    assert calls["masked_sum"] == 0


def test_label_drawn_between_calls_matches_reference(waves):
    # elements of one Pipeline: a level-0 element draws one raw label, and
    # so does a stray sample_labels, so the next element finds its wave's
    # rows out of step with the stream and starts a new wave at one row
    pow2 = schedule_uniform(12, 6)
    odd = schedule_uniform(20, 12, INTERVAL)
    for seed in range(4):
        waves.clear()
        assert_same_elements(1 << 12, seed, pow2, [
            {"level": 11}, {"level": 0}, {"level": 11}, 1, {"level": 10},
        ])
        assert waves.count(1) == 3
        assert_same_sequence(1000003, seed, [
            (odd, {"scale": 3}),
            1,
            (odd, {"scale": 5}),
        ])


def test_one_shot_calls_share_no_wave(waves):
    # run_pipeline is a Pipeline asked for one element: a second call on
    # the same instance builds its own first wave, although the stream is
    # at the first call's next unused row, and both still match
    sched = schedule_uniform(12, 6)
    for seed in range(3):
        waves.clear()
        assert_same(1 << 12, sched, seed, calls=2)
        assert waves.count(1) == 2


def test_schedule_of_another_width_matches_reference():
    # a wave serves one stage-0 width and routine; another width, another
    # solver (which draws its labels without waves) and then the first
    # schedule again each find the stream where the previous call left it
    first, narrower = schedule_uniform(12, 6), schedule_uniform(12, 4)
    steps = [
        (first, {"level": 11}),
        (narrower, {"level": 11}),
        (first, {"level": 9}),
        (schedule_uniform(12, 8, POW2, MITM), {"level": 7}),
        (first, {"level": 11}),
    ]
    odd = [
        (schedule_uniform(20, 12, INTERVAL), {}),
        (schedule_uniform(20, 10, INTERVAL), {}),
        (schedule_uniform(20, 12, INTERVAL), {}),
    ]
    for seed in range(4):
        assert_same_sequence(1 << 12, seed, steps)
        assert_same_sequence(1000003, seed, odd)


def test_retry_exhaustion_mid_wave_matches_reference(monkeypatch):
    # with caps of k invocations per demanded output and 4 top candidates,
    # these seeds give up: seed 2 on the top candidates, seeds 7 and 8 in
    # stage 0 (after 186 and 1012 invocations), seed 45 in stage 1 (after
    # 260 queries) and seed 67 in stage 2 (after 5568); with mitm, whose
    # stage 0 runs without waves, seed 23 gives up in stage 1 of 4 (after
    # 1160); both engines must stop at the same draw
    for module in (pipeline_module, reference_module):
        monkeypatch.setattr(module, "RETRY_FACTOR", 1)
        monkeypatch.setattr(module, "P_PRIOR", 1)
    brute, mitm = schedule_uniform(16, 4), schedule_uniform(12, 4, POW2, MITM)
    for N, sched, seed, stage, queries in (
        (1 << 16, brute, 2, None, 6708),
        (1 << 16, brute, 7, 0, 744),
        (1 << 16, brute, 8, 0, 4048),
        (1 << 16, brute, 45, 1, 260),
        (1 << 16, brute, 67, 2, 5568),
        (1 << 12, mitm, 23, 1, 1160),
    ):
        got = raised(run_pipeline, N, sched, seed)
        assert got == raised(reference_pipeline, N, sched, seed)
        assert got[0] is RetryExhaustedError
        assert (got[1], got[3]) == (queries, stage)
        assert sched is mitm or mid_wave(got[1] // 4, 4)


def test_interval_retry_exhaustion_matches_reference(monkeypatch):
    # odd N, k = 5 interval stages (r = 2) with caps of k invocations per
    # demanded output: seed 20 gives up in stage 0 after 186 invocations,
    # three outputs into a run of 9 rows and mid-wave; seed 33 after 63,
    # in a run of 10 rows that ends on the last row of the 32-row wave;
    # seed 36 gives up in stage 1, after 117 stage-0 invocations
    for module in (pipeline_module, reference_module):
        monkeypatch.setattr(module, "RETRY_FACTOR", 1)
        monkeypatch.setattr(module, "P_PRIOR", 1)
    sched = schedule_uniform(20, 5, INTERVAL)
    for seed, invocations, stage in ((20, 186, 0), (33, 63, 0), (36, 117, 1)):
        got = raised(run_pipeline, 1000003, sched, seed)
        assert got == raised(reference_pipeline, 1000003, sched, seed)
        assert got[0] is RetryExhaustedError
        assert (got[1], got[3]) == (5 * invocations, stage)
        assert mid_wave(invocations, 5) == (seed != 33)


def test_stray_label_draw_breaks_wave_alignment(monkeypatch):
    # one label drawn behind the engine's back, inside a wave of two rows:
    # the run on that wave draws labels its rows were not built from
    real_run = pipeline_module.brute_run
    inst = new_instance(1 << 12, seed=0)
    runs = []

    def run(table, *args):
        runs.append(len(table))
        out = real_run(table, *args)
        if len(runs) == 2:
            inst.sample_labels(1)
        return out

    monkeypatch.setattr(pipeline_module, "brute_run", run)
    with pytest.raises(AccountingError, match="out of step"):
        run_pipeline(inst, schedule_uniform(12, 6))
    assert runs == [1, 2]


@pytest.mark.parametrize("N,sched,kwargs,dtype", [
    (1000003, schedule_uniform(20, 12, INTERVAL), {"scale": 3}, np.int32),
    (1 << 16, schedule_uniform(16, 8), {}, np.int32),
    # k * (N - 1) >= 2^31: table_dtype gives int64
    (1 << 40, schedule_uniform(40, 8), {"level": 9}, np.int64),
], ids=["interval-k12", "pow2-k8", "pow2-2^40"])
def test_later_stage_tables_take_the_stage_dtype(monkeypatch, N, sched, kwargs, dtype):
    # a later kernel stage's one-row table is built in the dtype its
    # inputs' bound gives (table_dtype of k inputs below N or b_in): int32
    # wherever stage 0's waves are, with the reference's results. A stage-0
    # run is on the table the last _Wave.build made; every other run is on
    # a later stage's one-row table
    dtypes = set()
    wave_table = []
    real_build, real_run = pipeline_module._Wave.build, pipeline_module.brute_run

    def build(wave, inst):
        real_build(wave, inst)
        wave_table[:] = [wave.table]

    def run(table, *args):
        if not any(table is built for built in wave_table):
            assert len(table) == 1
            dtypes.add(table.dtype)
        return real_run(table, *args)

    monkeypatch.setattr(pipeline_module._Wave, "build", build)
    monkeypatch.setattr(pipeline_module, "brute_run", run)
    for seed in range(2):
        assert_same(N, sched, seed, **kwargs)
    assert dtypes == {np.dtype(dtype)}


def test_peek_or_another_instance_between_calls_keeps_the_wave(waves):
    # a wave knows its rows by stream position: a peek between two elements
    # of one Pipeline, even one that refills the label buffer, and an
    # element of another instance's Pipeline serve no label, so the next
    # element carries on with the same wave and its rows keep doubling
    # instead of restarting at one row
    sched = schedule_uniform(12, 6)
    for seed in range(3):
        waves.clear()
        got = []
        for reference in (False, True):
            inst, other = new_instance(1 << 12, seed=seed), new_instance(1 << 12, seed=seed + 8)
            element = elements(inst, sched, reference)
            first = result(inst, *element(level=11))
            inst.peek_labels(3 * LABEL_BATCH)
            between = result(other, *elements(other, sched, reference)(level=11))
            second = result(inst, *element(level=10))
            got.append((first, between, second, inst.sample_labels(3).tolist()))
        assert got[0] == got[1]
        # one first wave per instance: a restarted wave would be a third
        assert waves.count(1) == 2
