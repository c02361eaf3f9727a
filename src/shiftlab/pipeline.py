"""Stage schedules and the pipeline that drives elements through them.

A schedule is a list of (k, r) stages. Each stage invocation consumes k
elements from the previous stage and, with some constant probability, emits
one element that is "better": divisible by 2^r more in the power-of-two
routine, or confined to a 2^r-times smaller interval in the interval routine.
Chaining m stages turns uniform raw elements into a single target element at
a cost that compounds geometrically, which is exactly the (k/p)^m query law
the ledger exists to measure.

Four schedule families cover the design space:

  uniform      every stage identical, width k given by the caller;
  increasing   width grows linearly with stage index, step log2(n)/(2c),
               so each stage's solver cost 2^{c k_i} stays balanced;
  affine       increasing plus a constant offset beta*sqrt(n log2 n),
               the quadratic query/time gap point at beta = 1/sqrt(3c);
  single       one stage wide enough to solve the whole problem, the
               minimum-query regime.

Widths from the real-valued formulas are rounded to integers with a floor of
2 and r clamped to [1, k-1]; params on the Schedule keeps the raw formula
inputs so printers can show both.

run_pipeline runs the stages on plain int labels, recursively: the top
stage is asked for one output, and each stage asks the stage below for the
k inputs of an invocation in one batch, since it cannot run before it has
them all. Every invocation is one combination on its k inputs, inputs are
consumed whatever the outcome, and only the element handed back becomes a
PhaseElement. One loop (_Engine.run) runs every stage: brute force at
k <= 18 runs on the run kernel combine.brute_run, which only the engine
calls, on a stage-0 wave's rows or on a later stage's one-row table; every
other solver makes one combine.combine_labels call per invocation. Each
call of the loop charges its stage's row of the CostLedger once; the rows
sum to the ledger's totals.

Stage 0's inputs are the next k labels of the instance's label stream, which
no other draw in the pipeline touches. So with brute force the engine
builds stage 0's subset-sum tables ahead, in waves: one batched
subset_sums call over labels peeked (not drawn) from the stream, one row per
upcoming invocation, int32 when every sum fits (table_dtype). The peeked
labels are an int64 view of the instance's label buffer, so no Python list
stands between the stream and a table. An instance's first wave has one
row and each next wave twice as many, up to a cap per width that module
constants set (_wave_rows): 2048 rows at k = 4, 128 at k = 8, 32 at
k = 12, so that wide rows share each build's fixed cost too. A wave's old
table is dropped before the next is built. One demanded
batch of stage-0 outputs makes one brute_run call per wave it reaches,
with the same RNG calls as one invocation at a time. The labels of the
rows run are then drawn in one step, in stream order and with the same
query charge, before any next wave is built. A wave knows its labels by
their stream position only: the instance's q_queries when it was built,
since each served label advances q_queries by one. So row j's labels are
the next ones exactly when q_queries is that position plus j*k, and a
draw made when it is not raises AccountingError.

A wave outlives the run_pipeline call that built it: it stays with its
instance, and the instance's next call carries on with its unused rows when
that call's stage 0 has the same width and routine and the stream is still
at those rows' position; otherwise the rows are dropped (they cost wall
time only) and the waves start again at one row. Every row,
at every stage, holds its input labels' subset sums; their residues mod
2^r serve every stage-0 r, so all the levels of a recovery share its
waves, and a power-of-two output label is the difference of two row
entries mod N. Power-of-two sums past 2^63 wrap mod 2^64 in int64, which
N = 2^n divides, so the ancilla bits and those differences stay exact. At
r <= 8 a stage-0 power-of-two row's preimages are found by bytes.find
over the wave's residues mod 2^r, one byte per cell, built once per wave
and r; wider r, later stages and the interval routine scan the row with
numpy.
"""

from __future__ import annotations

import math
import random
import time
import weakref
from dataclasses import dataclass, field

import numpy as np

# combine_pow2/combine_interval stay importable here: perfbench's tracer wraps these names
from .combine import brute_run, combine_interval, combine_labels, combine_pow2  # noqa: F401
from .errors import AccountingError, GuardError, RetryExhaustedError
from .group_arith import ceil_div, ceil_log2, two_adic_valuation
from .instance import HiddenShiftInstance, PhaseElement
from .kinds import (
    BRUTE, INTERVAL, POW2, POW2_TOP, ROUTINES, SEEDED_SOLVERS, SOLVER_WIDTHS, SOLVERS, TARGETS,
)
from .seeds import derive, label_path
from .subset_sum.lists import subset_sums
from .subset_sum.solvers import sums_fit, table_dtype

# run_pipeline's retry budgets; P_PRIOR is the per-invocation success
# probability that the (k/p)^m query law assumes
RETRY_FACTOR = 10
P_PRIOR = 0.25
# rows a stage-0 wave of brute-force tables may hold at width k
# (_wave_rows): WAVE_CELLS cells' worth, or WAVE_ROWS rows when that is
# more and stays within WAVE_MAX_CELLS cells, and always one row
WAVE_CELLS = 1 << 15
WAVE_ROWS = 32
WAVE_MAX_CELLS = 1 << 17
# widest brute-force stage run on the kernel combine.brute_run, one table row
# of 2^k subset sums per combination; wider stages go through combine_labels,
# whose solve_bruteforce joins two half tables. The kernel charges a row
# 2^k + |J| cells, which is solve_bruteforce's charge only up to
# solvers.BRUTE_TABLE_BITS, so this stays at or below it.
KERNEL_K_MAX = 18


@dataclass(frozen=True)
class StageSpec:
    """One pipeline stage: consume k elements, gain r bits."""

    k: int
    r: int
    routine: str = POW2

    def __post_init__(self) -> None:
        for name in ("k", "r"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"stage {name} must be an int, got {value!r}")
        if self.k < 2:
            raise GuardError(f"stage width k must be >= 2, got {self.k}")
        if not 1 <= self.r < self.k:
            raise GuardError(f"need 1 <= r < k, got r={self.r}, k={self.k}")
        if self.routine not in ROUTINES:
            raise GuardError(f"unknown routine {self.routine!r}")

    def as_dict(self) -> dict:
        return {"k": self.k, "r": self.r, "routine": self.routine}


@dataclass(frozen=True)
class Schedule:
    stages: tuple[StageSpec, ...]
    solver_id: str = BRUTE
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.stages:
            raise GuardError("schedule needs at least one stage")
        if self.solver_id not in SOLVERS:
            raise GuardError(f"unknown solver {self.solver_id!r}")
        object.__setattr__(self, "stages", tuple(self.stages))
        lo, hi = SOLVER_WIDTHS[self.solver_id]
        for i, s in enumerate(self.stages):
            if s.k < lo or hi is not None and s.k > hi:
                widths = f"k >= {lo}" if hi is None else f"{lo} <= k <= {hi}"
                raise GuardError(
                    f"stage {i}: solver {self.solver_id} needs {widths}, got k={s.k}"
                )

    @property
    def total_r(self) -> int:
        return sum(s.r for s in self.stages)

    def to_json_dict(self) -> dict:
        return {
            "stages": [s.as_dict() for s in self.stages],
            "solver": self.solver_id,
            "params": dict(self.params),
        }

    def describe(self) -> str:
        """Human-oriented one-line-per-stage rendering."""
        lines = [f"schedule: {len(self.stages)} stage(s), solver={self.solver_id}"]
        if self.params:
            pretty = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
            lines.append(f"  params: {pretty}")
        for i, s in enumerate(self.stages):
            lines.append(f"  stage {i}: k={s.k} r={s.r} {s.routine}")
        lines.append(f"  total r: {self.total_r}")
        return "\n".join(lines)


def schedule_from_json(doc: dict) -> Schedule:
    """The schedule of a to_json_dict document; KeyError or TypeError when
    the document does not have that shape."""
    stages = tuple(StageSpec(d["k"], d["r"], d.get("routine", POW2)) for d in doc["stages"])
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise TypeError(f"schedule params must be a JSON object, got {params!r}")
    return Schedule(stages, doc.get("solver", BRUTE), dict(params))


def _stage_r(k: int, routine: str) -> int:
    """Largest legal r at width k: k-1 for pow2, k - ceil(log2 k) for interval."""
    if routine == POW2:
        return k - 1
    return k - ceil_log2(k)


def schedule_uniform(n: int, k: int, routine: str = POW2, solver_id: str = BRUTE) -> Schedule:
    """m identical stages of width k, m = ceil((n-1)/r)."""
    if n < 2:
        raise GuardError(f"need n >= 2, got {n}")
    if not 2 <= k <= 30:
        raise GuardError(f"stage width k must be in [2, 30], got {k}")
    r = _stage_r(k, routine)
    if r < 1:
        raise GuardError(f"k={k} leaves no room for r >= 1 under {routine}")
    m = ceil_div(n - 1, r)
    stages = tuple(StageSpec(k, r, routine) for _ in range(m))
    return Schedule(stages, solver_id, {"family": "uniform", "n": n, "k": k})


def _grow_stages(n: int, routine: str, width_at) -> tuple[StageSpec, ...]:
    """Stages with widths width_at(i) for i = 1, 2, ... until total r covers n-1."""
    stages: list[StageSpec] = []
    total = 0
    i = 1
    while total < n - 1:
        if not math.isfinite(width := width_at(i)):
            raise GuardError(f"stage {i - 1} width {width} is not finite")
        k = max(2, min(64, int(round(width))))
        r = max(1, _stage_r(k, routine))
        stages.append(StageSpec(k, r, routine))
        total += r
        i += 1
    return tuple(stages)


def schedule_increasing(n: int, c: float, routine: str = POW2, solver_id: str = BRUTE) -> Schedule:
    """Widths k_i = max(2, round(i * log2(n)/(2c))), stages until sum r_i >= n-1.

    The step makes the per-stage solver cost 2^{c k_i} grow by a fixed factor
    sqrt(n) per stage, keeping all stages within poly(n) of each other.
    """
    if n < 2:
        raise GuardError(f"need n >= 2, got {n}")
    if not 0 < c <= 1:
        raise GuardError(f"need 0 < c <= 1, got {c}")
    step = math.log2(n) / (2 * c)
    stages = _grow_stages(n, routine, lambda i: i * step)
    return Schedule(stages, solver_id, {"family": "increasing", "n": n, "c": c, "alpha": step})


def schedule_affine(
    n: int, c: float, beta: float | None = None, routine: str = POW2, solver_id: str = BRUTE
) -> Schedule:
    """Widths k_i = max(2, round(i*alpha + beta*sqrt(n log2 n))).

    alpha is the same absolute step as schedule_increasing; beta = 0 degenerates
    to it exactly. The default beta = 1/sqrt(3c) is the point where the query
    exponent is half the time exponent (the quadratic-gap tradeoff).
    """
    if n < 2:
        raise GuardError(f"need n >= 2, got {n}")
    if not 0 < c <= 1:
        raise GuardError(f"need 0 < c <= 1, got {c}")
    if beta is None:
        beta = 1 / math.sqrt(3 * c)
    if not 0 <= beta < math.inf:
        raise GuardError(f"beta must be finite and >= 0, got {beta}")
    step = math.log2(n) / (2 * c)
    offset = beta * math.sqrt(n * math.log2(n))
    stages = _grow_stages(n, routine, lambda i: i * step + offset)
    return Schedule(
        stages,
        solver_id,
        {"family": "affine", "n": n, "c": c, "alpha": step, "beta": beta},
    )


def schedule_single(n: int, routine: str = POW2, solver_id: str = BRUTE) -> Schedule:
    """One stage covering all n-1 bits at once: k = n+1, r = n-1.

    Minimizes queries (O(n) per target element) at the price of one width-n
    solver call per invocation, hence the n <= 30 guard.
    """
    if not 2 <= n <= 30:
        raise GuardError(f"single-stage schedule needs 2 <= n <= 30, got {n}")
    return Schedule(
        (StageSpec(n + 1, n - 1, routine),),
        solver_id,
        {"family": "single", "n": n},
    )


# ---------------------------------------------------------------------------
# cost accounting


@dataclass
class StageStats:
    """Per-stage ledger row. consumed counts inputs eaten by this stage's
    invocations; discarded counts this stage's own outputs dropped by the
    caller (wrong valuation, label 0 at the tail)."""

    stage: int
    k: int
    r: int
    routine: str
    b_in: int | None = None
    invocations: int = 0
    successes: int = 0
    failures: int = 0
    consumed: int = 0
    produced: int = 0
    discarded: int = 0
    solver_ops: int = 0
    mem_peak: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class CostLedger:
    """What producing elements cost. wall_seconds is the summed wall time of
    the pipeline calls merged into the ledger; it excludes readout and
    classical_verify."""

    q_queries: int = 0
    c_queries: int = 0
    solver_ops: int = 0
    mem_peak_cells: int = 0
    elements_generated: int = 0
    elements_wasted: int = 0
    raw_discarded: int = 0
    wall_seconds: float = 0.0
    per_stage: list[StageStats] = field(default_factory=list)

    def merge(self, other: "CostLedger") -> None:
        """Fold another ledger into this one (summing scalars, appending rows)."""
        self.q_queries += other.q_queries
        self.c_queries += other.c_queries
        self.solver_ops += other.solver_ops
        self.mem_peak_cells = max(self.mem_peak_cells, other.mem_peak_cells)
        self.elements_generated += other.elements_generated
        self.elements_wasted += other.elements_wasted
        self.raw_discarded += other.raw_discarded
        self.wall_seconds += other.wall_seconds
        self.per_stage.extend(other.per_stage)

    def check_consistent(self) -> None:
        """Internal accounting identities; raises AccountingError on breakage
        (plain checks, not asserts, so they also hold under python -O)."""
        if self.q_queries != self.elements_generated:
            raise AccountingError("query/element mismatch")
        if self.solver_ops != sum(s.solver_ops for s in self.per_stage):
            raise AccountingError("solver ops differ from the per-stage sum")
        if self.mem_peak_cells != max((s.mem_peak for s in self.per_stage), default=0):
            raise AccountingError("memory peak differs from the per-stage peak")
        if self.elements_wasted != self.raw_discarded + sum(
            s.k * s.failures + s.discarded for s in self.per_stage
        ):
            raise AccountingError("waste accounting mismatch")
        for s in self.per_stage:
            if (
                s.invocations != s.successes + s.failures
                or s.consumed != s.k * s.invocations
                or s.produced != s.successes
            ):
                raise AccountingError(f"stage {s.stage} row is inconsistent")

    def as_dict(self) -> dict:
        d = {k: v for k, v in self.__dict__.items() if k != "per_stage"}
        d["per_stage"] = [s.as_dict() for s in self.per_stage]
        return d


# ---------------------------------------------------------------------------
# the pipeline itself


class _PlanStage:
    """Concrete stage after target resolution: a is the input valuation
    (pow2), b_in the input label bound (interval)."""

    __slots__ = ("k", "r", "routine", "a", "b_in")

    def __init__(self, k: int, r: int, routine: str, a: int = 0, b_in: int | None = None):
        self.k = k
        self.r = r
        self.routine = routine
        self.a = a
        self.b_in = b_in


def _plan_pow2(sched: Schedule, level: int) -> list[_PlanStage]:
    """Stage prefix whose r values sum to exactly `level`, clipping the last.

    Schedules shorter than the level reuse their final stage; a level of 0
    needs no combining at all (raw odd labels are level-0 elements).
    """
    plan: list[_PlanStage] = []
    cum = 0
    idx = 0
    while cum < level:
        spec = sched.stages[min(idx, len(sched.stages) - 1)]
        if spec.routine != POW2:
            raise GuardError("POW2_TOP target needs a power-of-two schedule")
        r_use = min(spec.r, level - cum)
        plan.append(_PlanStage(spec.k, r_use, POW2, a=cum))
        cum += r_use
        idx += 1
    return plan


def plan_interval(sched: Schedule, N: int) -> list[_PlanStage]:
    """Interval ladder: B shrinks by ceil(B/2^r_eff) per stage until B <= 2.

    r_eff keeps two constraints: the combination's r <= k - ceil(log2 k)
    precondition, and B' >= 2 (a bound of 1 would collapse every label to 0).
    Stages beyond the schedule's nominal length reuse its last stage.
    Raises GuardError, before any element is drawn, when a stage's k labels
    below B could sum past the solvers' int64 bound.
    """
    plan: list[_PlanStage] = []
    B = N
    idx = 0
    while B > 2:
        spec = sched.stages[min(idx, len(sched.stages) - 1)]
        if spec.routine != INTERVAL:
            raise GuardError("SMALL_ONE target needs an interval schedule")
        if not sums_fit(spec.k, B - 1):
            raise GuardError(
                f"N = {N}: stage {idx} sums k = {spec.k} labels below {B}, "
                "too large for 64-bit partial sums"
            )
        r_eff = min(spec.r, _stage_r(spec.k, INTERVAL), max(1, ceil_log2(B) - 1))
        plan.append(_PlanStage(spec.k, r_eff, INTERVAL, b_in=B))
        B = ceil_div(B, 1 << r_eff)
        idx += 1
    return plan


class _Wave:
    """Brute-force tables built ahead for an instance's stage-0 invocations
    of one width and routine (key): row j of table is the subset-sum table
    of the k labels at stream positions start + j*k onwards, and row is the
    next unused one. start is the instance's q_queries when the table was
    built: the position of the first label not yet served.

    Rows hold the labels' own sums, in int64 wrapping mod 2^64 where a
    power-of-two wave's sums pass 2^63: exact for the ancilla bits and for
    differences mod N, since N = 2^n divides 2^64. residues holds the
    table's residues mod 2^res_r, one byte per cell, for the one
    power-of-two r <= 8 last asked for (residue_bytes).

    Wrapped rows replaced rows of the labels' low k - 1 bits past
    sums_fit, the one other row format: on one N = 2^62, k = 12 top
    element (10,168,308 queries, r = 11 numpy scans) those ran in 20.3 s
    against 21.9 s (medians of 6 alternating runs, CHANGES.md), a cost
    kept off every benchmark workload, none of which has N > 2^59.
    """

    __slots__ = ("key", "dtype", "table", "start", "row", "res_r", "residues")

    def __init__(self, key: tuple[int, str], dtype):
        self.key = key
        self.dtype = dtype
        self.table = np.empty((0, 0), dtype=dtype)
        self.start = 0
        self.row = 0
        self.res_r = 0
        self.residues = b""

    def build(self, inst: HiddenShiftInstance) -> None:
        """Replace the table with the next wave's, built from the labels
        the next stage-0 invocations will draw, peeked, not drawn: twice
        the rows of the last wave (one for the first), up to _wave_rows(k).
        The peeked int64 view is cast to the wave's dtype and reshaped, with
        no Python list in between. _Engine.run draws a run's labels after
        its brute_run call on the wave. The old table and residue bytes are
        dropped first, so that one table at a time is held.

        No weight check is needed: the dtype is the table_dtype of k labels
        below N (_stage0_wave), an interval wave's labels pass sums_fit
        (plan_interval), and a power-of-two wave's may wrap.
        """
        k = self.key[0]
        rows = min(max(1, 2 * len(self.table)), _wave_rows(k))
        self.table = np.empty((0, 0), dtype=self.dtype)
        self.residues = b""
        labels = inst.peek_labels(rows * k)
        self.table = subset_sums(labels.astype(self.dtype, copy=False).reshape(rows, k))
        self.start = inst.q_queries
        self.row = 0
        self.res_r = 0

    def residue_bytes(self, r: int) -> bytes:
        """The table's residues mod 2^r, r <= 8, one byte per cell in table
        order: built once per table and r, and kept for the last r only."""
        if self.res_r != r:
            res = self.table.astype(np.uint8)
            res &= (1 << r) - 1
            self.residues = res.tobytes()
            self.res_r = r
        return self.residues


def _wave_rows(k: int) -> int:
    """Most rows a stage-0 wave of width k holds: 2048 at k = 4, 128 at
    k = 8, 32 at k = 10 to 12, 8 at k = 14, 1 from k = 17 on."""
    return max(1, WAVE_CELLS >> k, min(WAVE_ROWS, WAVE_MAX_CELLS >> k))


# each instance's current stage-0 wave, kept across run_pipeline calls. It
# lives here, not on the instance, which knows nothing of tables; instances
# hash by identity, and an entry goes with its instance.
_WAVES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _stage0_wave(inst: HiddenShiftInstance, st: _PlanStage) -> _Wave:
    """The instance's wave for stage 0 st: its current one when the key
    matches and the stream is at its next unused row's position (no label
    was served since its last run), else a new, empty one, int32 when every
    sum of k labels below N fits."""
    key = (st.k, st.routine)
    wave = _WAVES.get(inst)
    if wave is not None and wave.key == key and inst.q_queries == wave.start + wave.row * st.k:
        return wave
    wave = _WAVES[inst] = _Wave(key, table_dtype(st.k, inst.modulus.N - 1))
    return wave


class _Engine:
    """The stages of one run_pipeline call, run on int labels."""

    def __init__(
        self,
        inst: HiddenShiftInstance,
        sched: Schedule,
        plan: list[_PlanStage],
        rng: random.Random,
    ):
        self.inst = inst
        self.plan = plan
        self.rng = rng
        self.solver_id = sched.solver_id
        self.solver_seed = derive(inst.seed, label_path("solver"))
        self.seeded = sched.solver_id in SEEDED_SOLVERS
        self.N = inst.modulus.N
        self.ledger = CostLedger()
        self.stats = [
            StageStats(i, st.k, st.r, st.routine, b_in=st.b_in) for i, st in enumerate(plan)
        ]
        self.ledger.per_stage = self.stats
        self.caps = [RETRY_FACTOR * math.ceil(st.k / P_PRIOR) for st in plan]
        self._invocation = 0
        # which stages run on the kernel brute_run
        self.kernel = [sched.solver_id == BRUTE and st.k <= KERNEL_K_MAX for st in plan]
        # a later kernel stage's one-row table dtype: its inputs are below N
        # (pow2) or b_in (interval), so it is int32 wherever a wave would be
        self.dtypes = [
            table_dtype(st.k, (self.N if st.routine == POW2 else st.b_in) - 1) for st in plan
        ]
        self.wave = _stage0_wave(inst, plan[0]) if plan and self.kernel[0] else None

    def _raw(self, n: int) -> list[int]:
        """Draw n raw labels, one query each, and charge them in one step."""
        self.ledger.q_queries += n
        self.ledger.elements_generated += n
        return self.inst.sample_labels(n)

    def run(self, i: int, need: int) -> list[int]:
        """The next need outputs of stage i, in order; raw labels for i < 0.

        Each output may spend caps[i] invocations: the allowance is reset
        after every success, and a stage that spends it raises
        RetryExhaustedError. Each pass of the loop makes one step:
        - stage 0 with a wave: one brute_run call on the wave's next rows,
          until the need is met, the allowance is spent or the wave ends.
          The labels of the rows it ran are then drawn in one step, after
          checking that the stream is still at those rows' position
          (AccountingError if not), before any next wave is built;
        - a later kernel stage: one brute_run call on the one-row table of
          the k inputs it asks stage i - 1 for in one batch, since it
          cannot run before it holds them all, built from a 1-D array of
          its dtype (dtypes[i]);
        - any other stage: one combine_labels call on its k inputs. Only
          this step advances the counter behind the solver seed, which
          only seeded solvers use, and brute force is never seeded.
        Input labels need no magnitude check: power-of-two sums may wrap
        (_Wave), and plan_interval keeps interval labels in sums_fit. The
        stage's ledger row is charged once per call. The recursion is as
        deep as the plan is long, at most 63 stages (N <= 2^63 - 1, r >= 1
        per stage).
        """
        if i < 0:
            return self._raw(need)
        st = self.plan[i]
        k = st.k
        where = st.a if st.routine == POW2 else st.b_in
        wave = self.wave if i == 0 else None
        left = cap = self.caps[i]
        outs: list[int] = []
        runs = ops = mem = 0
        while len(outs) < need and left:
            if self.kernel[i]:
                if wave is None:
                    inputs = np.array(self.run(i - 1, k), dtype=self.dtypes[i])
                    table, j, residues = subset_sums(inputs).reshape(1, -1), 0, None
                else:
                    if wave.row == len(wave.table):
                        wave.build(self.inst)
                    table, j, residues = wave.table, wave.row, None
                    if st.routine == POW2 and st.r <= 8:  # residues mod 2^r fit a byte
                        residues = wave.residue_bytes(st.r)
                got, n, peak, left = brute_run(
                    table, j, st.routine, st.r, where, self.N, self.rng,
                    need - len(outs), left, cap, residues,
                )
                ops += n << k
                if wave is not None:
                    wave.row = j + n
                    if self.inst.q_queries != wave.start + j * k:
                        raise AccountingError(
                            f"stage-0 labels drawn out of step with wave rows {j} to {j + n - 1}"
                        )
                    self._raw(n * k)
            else:
                labels = self.run(i - 1, k)  # the inputs' invocations count first
                self._invocation += 1
                seed = derive(self.solver_seed, i, self._invocation) if self.seeded else 0
                label, _, _, _, solver_ops, peak = combine_labels(
                    labels, st.routine, st.r, where, self.N, self.solver_id, self.rng, seed,
                )
                got, n = ([] if label is None else [label]), 1
                left = left - 1 if label is None else cap
                ops += solver_ops
            runs += n
            mem = max(mem, peak)
            outs += got
        failures = runs - len(outs)
        row = self.stats[i]
        row.invocations += runs
        row.consumed += k * runs
        row.successes += len(outs)
        row.produced += len(outs)
        row.failures += failures
        row.solver_ops += ops
        row.mem_peak = max(row.mem_peak, mem)
        self.ledger.solver_ops += ops
        self.ledger.mem_peak_cells = max(self.ledger.mem_peak_cells, mem)
        self.ledger.elements_wasted += k * failures
        if not left:
            raise RetryExhaustedError(
                f"stage {i} (k={k}, r={st.r}, {st.routine}) exhausted "
                f"{cap} invocations without a success"
            )
        return outs

    def discard(self, depth: int) -> None:
        """Count one output of stage depth (raw for -1) that the caller drops."""
        self.ledger.elements_wasted += 1
        if depth >= 0:
            self.stats[depth].discarded += 1
        else:
            self.ledger.raw_discarded += 1


def run_pipeline(
    inst: HiddenShiftInstance,
    sched: Schedule,
    target: str = POW2_TOP,
    rng: random.Random | None = None,
    *,
    level: int | None = None,
    scale: int = 1,
) -> tuple[PhaseElement, CostLedger]:
    """Produce one target element and the ledger of what it cost.

    POW2_TOP (N = 2^n): returns an element whose label has 2-adic valuation
    exactly `level` (default n-1), built from the schedule prefix covering
    `level` bits. SMALL_ONE (odd N): returns an element with label exactly 1,
    built by interval stages until the label bound reaches 2, dropping
    label-0 outputs. `scale` propagates to sampled elements so callers can
    run the pipeline in rescaled label coordinates.

    Each stage gets a retry budget of RETRY_FACTOR * ceil(k / P_PRIOR)
    invocations per demanded output, and at most RETRY_FACTOR * ceil(4 /
    P_PRIOR) top-stage outputs are drawn; exceeding either raises
    RetryExhaustedError. Every solve runs its solver's one configuration
    (subset_sum.solve). Solver seeds, and rng unless given, derive from
    inst.seed ("solver" and "pipeline" paths).
    """
    if target not in TARGETS:
        raise GuardError(f"unknown target {target!r}")
    if rng is None:
        rng = random.Random(derive(inst.seed, label_path("pipeline")))
    mod = inst.modulus

    if target == POW2_TOP:
        if not mod.is_pow2:
            raise GuardError("POW2_TOP target needs N = 2^n")
        top_level = mod.n - 1 if level is None else level
        if not 0 <= top_level <= mod.n - 1:
            raise GuardError(f"level must be in [0, {mod.n - 1}], got {top_level}")
        plan = _plan_pow2(sched, top_level)
    else:
        if not mod.is_odd:
            raise GuardError("SMALL_ONE target needs odd N")
        if level is not None:
            raise GuardError("level applies to POW2_TOP only")
        plan = plan_interval(sched, mod.N)

    eng = _Engine(inst, sched, plan, rng)
    t0 = time.perf_counter()
    top = len(plan) - 1
    tries = RETRY_FACTOR * math.ceil(4 / P_PRIOR)
    result: PhaseElement | None = None
    for _ in range(tries):
        label = eng.run(top, 1)[0]
        if target == POW2_TOP:
            if two_adic_valuation(label) == top_level:
                result = inst.derive_element(label, scale)
                break
        else:
            if label == 1:
                result = inst.derive_element(label, scale)
                break
        eng.discard(top)
    if result is None:
        raise RetryExhaustedError(f"no {target} element after {tries} candidates")
    eng.ledger.wall_seconds = time.perf_counter() - t0
    eng.ledger.check_consistent()
    return result, eng.ledger
