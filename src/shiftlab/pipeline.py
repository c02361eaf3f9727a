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

A Pipeline is one recovery's engine: one instance, schedule and rng, asked
for one element at a time (Pipeline.element), and run_pipeline is a
Pipeline asked for one element. The modulus picks the ladder: a power of
two runs power-of-two stages up to an element of a given 2-adic level, an
odd N interval stages down to an element of label 1, and the Pipeline
refuses a schedule with a stage of the other routine. It runs the stages on
plain int labels, recursively: the top stage is asked for one output, and
each stage asks the stage below for the k inputs of an invocation in one
batch, since it cannot run before it has them all. Every invocation is one
combination on its k inputs, inputs are consumed whatever the outcome, and
only the element handed back becomes a PhaseElement. One loop
(Pipeline._run) runs every stage: brute force at
k <= 18 runs on the run kernel combine.brute_run, which only the engine
calls, on a stage-0 wave's rows or on a later stage's one-row table; every
other solver makes one combine.combine_labels call per invocation. An
element's plan is its rows (StageStats) of the recovery's one CostLedger,
built afresh: each call of the loop reads its stage's k, r and input
bound from its row and charges it once; the rows sum to the ledger's totals.

Stage 0's inputs are the next k labels of the instance's label stream, which
no other draw in the pipeline touches. So with brute force the engine
builds stage 0's subset-sum tables ahead, in waves: one batched
subset_sums call over labels peeked (not drawn) from the stream, one row per
upcoming invocation, int32 when every sum fits (table_dtype). The peeked
labels are an int64 view of the instance's label buffer, so no Python list
stands between the stream and a table. A Pipeline's first wave has one
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

A wave lasts as long as its Pipeline: the next element carries on with its
unused rows when the stream is still at those rows' position; otherwise the
rows are dropped (they cost wall time only) and the waves start again at one
row. Every row, at every stage, holds its input labels' subset sums; their
residues mod 2^r serve every stage-0 r, so all the levels of a recovery
share its waves, and a power-of-two output label is the difference of two
row entries mod N. Power-of-two sums past 2^63 wrap mod 2^64 in int64, which
N = 2^n divides, so the ancilla bits and those differences stay exact. At
r <= 8 a stage-0 power-of-two row's preimages are found by bytes.find over
the wave's residues mod 2^r, one byte per cell, built once per wave and r;
wider r, later stages and the interval routine scan the row with numpy.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

import numpy as np

# combine_pow2/combine_interval stay importable here: perfbench's tracer wraps these names
from .combine import brute_run, combine_interval, combine_labels, combine_pow2  # noqa: F401
from .errors import AccountingError, GuardError, RetryExhaustedError
from .group_arith import ceil_div, ceil_log2, two_adic_valuation
from .instance import HiddenShiftInstance, PhaseElement
from .kinds import BRUTE, INTERVAL, POW2, ROUTINES, SOLVER_WIDTHS, SOLVERS
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
    affine = schedule_affine(n, c, 0.0, routine, solver_id)
    params = {"family": "increasing", "n": n, "c": c, "alpha": affine.params["alpha"]}
    return Schedule(affine.stages, solver_id, params)


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
    """Per-stage ledger row, and the stage of an element's plan: a is the
    input 2-adic valuation (power-of-two rows), b_in the input label bound
    (interval rows), None on the other routine's rows. consumed counts
    inputs eaten by this stage's invocations; discarded counts this stage's
    own outputs dropped by the caller (wrong valuation, label 0 at the
    tail)."""

    stage: int
    k: int
    r: int
    routine: str
    a: int | None = None
    b_in: int | None = None
    invocations: int = 0
    successes: int = 0
    failures: int = 0
    consumed: int = 0
    produced: int = 0
    discarded: int = 0
    solver_ops: int = 0
    mem_peak: int = 0


@dataclass
class CostLedger:
    """What producing elements cost: a recovery's one ledger, charged in
    place by each Pipeline.element. wall_seconds is the summed wall time of
    the elements charged to it, without readout or classical_verify. On a
    failed run, solver_ops and mem_peak_cells cover only the stage calls
    that finished, and wall_seconds only the elements that finished."""

    q_queries: int = 0
    c_queries: int = 0
    solver_ops: int = 0
    mem_peak_cells: int = 0
    elements_generated: int = 0
    elements_wasted: int = 0
    raw_discarded: int = 0
    wall_seconds: float = 0.0
    per_stage: list[StageStats] = field(default_factory=list)

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


# ---------------------------------------------------------------------------
# the pipeline itself


def _plan_pow2(sched: Schedule, level: int) -> list[StageStats]:
    """Fresh ledger rows for the stage prefix whose r values sum to exactly
    `level`, clipping the last.

    Schedules shorter than the level reuse their final stage; a level of 0
    needs no combining at all (raw odd labels are level-0 elements).
    """
    plan: list[StageStats] = []
    cum = 0
    while cum < level:
        spec = sched.stages[min(len(plan), len(sched.stages) - 1)]
        r_use = min(spec.r, level - cum)
        plan.append(StageStats(len(plan), spec.k, r_use, POW2, a=cum))
        cum += r_use
    return plan


def plan_interval(sched: Schedule, N: int) -> list[StageStats]:
    """Fresh ledger rows for the interval ladder: B shrinks by
    ceil(B/2^r_eff) per stage until B <= 2.

    r_eff keeps two constraints: the combination's r <= k - ceil(log2 k)
    precondition, and B' >= 2 (a bound of 1 would collapse every label to 0).
    Stages beyond the schedule's nominal length reuse its last stage.
    Raises GuardError, before any element is drawn, when a stage's k labels
    below B could sum past the solvers' int64 bound.
    """
    plan: list[StageStats] = []
    B = N
    while B > 2:
        idx = len(plan)
        spec = sched.stages[min(idx, len(sched.stages) - 1)]
        if not sums_fit(spec.k, B - 1):
            raise GuardError(
                f"N = {N}: stage {idx} sums k = {spec.k} labels below {B}, "
                "too large for 64-bit partial sums"
            )
        r_eff = min(spec.r, _stage_r(spec.k, INTERVAL), max(1, ceil_log2(B) - 1))
        plan.append(StageStats(idx, spec.k, r_eff, INTERVAL, b_in=B))
        B = ceil_div(B, 1 << r_eff)
    return plan


class _Wave:
    """Brute-force tables built ahead for a Pipeline's stage-0 invocations,
    k labels each: row j of table is the subset-sum table of the k labels
    at stream positions start + j*k onwards, and row is the next unused
    one. start is the instance's q_queries when the table was built: the
    position of the first label not yet served.

    Rows hold the labels' own sums, in int64 wrapping mod 2^64 where a
    power-of-two wave's sums pass 2^63: exact for the ancilla bits and for
    differences mod N, since N = 2^n divides 2^64. residues holds the
    table's residues mod 2^res_r, one byte per cell, for the one
    power-of-two r <= 8 last asked for (residue_bytes).
    """

    __slots__ = ("k", "dtype", "table", "start", "row", "res_r", "residues")

    def __init__(self, k: int, dtype):
        self.k = k
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
        no Python list in between. Pipeline._run draws a run's labels after
        its brute_run call on the wave. The old table and residue bytes are
        dropped first, so that one table at a time is held.

        No weight check is needed: the dtype is the table_dtype of k labels
        below N (Pipeline), an interval wave's labels pass sums_fit
        (plan_interval), and a power-of-two wave's may wrap.
        """
        k = self.k
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


class Pipeline:
    """One recovery's stages, run on int labels: an instance, schedule and
    rng, asked for one element at a time (element). N picks the ladder:
    power-of-two stages when it is a power of two (pow2), interval stages
    when it is odd; any other N, or a stage of the other routine, is a
    GuardError here. The solver seed and stage-0 wave are set up once;
    each element's plan is built afresh as its ledger rows."""

    def __init__(
        self, inst: HiddenShiftInstance, sched: Schedule, rng: random.Random | None = None
    ):
        mod = inst.modulus
        if not (mod.is_pow2 or mod.is_odd):
            raise GuardError(f"N = {mod.N} is neither a power of two nor odd")
        self.pow2 = mod.is_pow2
        routine = POW2 if self.pow2 else INTERVAL
        if any(spec.routine != routine for spec in sched.stages):
            raise GuardError(f"N = {mod.N} needs a schedule of {routine} stages only")
        self.inst = inst
        self.sched = sched
        if rng is None:
            rng = random.Random(derive(inst.seed, label_path("pipeline")))
        self.rng = rng
        self.solver_seed = derive(inst.seed, label_path("solver"))
        self.N = mod.N
        # stage 0's wave, kept from one element to the next (element); every
        # plan's stage 0 has the schedule's first width and inputs below N
        k = sched.stages[0].k
        self.wave = None
        if sched.solver_id == BRUTE and k <= KERNEL_K_MAX:
            self.wave = _Wave(k, table_dtype(k, mod.N - 1))

    def element(
        self, ledger: CostLedger, *, level: int | None = None, scale: int = 1
    ) -> PhaseElement:
        """run_pipeline's element, charged to ledger: the plan, fresh rows
        from _plan_pow2 or plan_interval whose guards refuse first, is
        appended to ledger's rows before any label is drawn, _raw and _run
        charge ledger in place, and an element that returns adds its wall
        time and checks ledger. The wave carries over when the stream is at
        its next unused row and starts again at one row otherwise; the
        invocation count behind the solver seed is the element's own."""
        inst = self.inst
        if self.pow2:
            top_level = inst.modulus.n - 1 if level is None else level
            if not 0 <= top_level <= inst.modulus.n - 1:
                raise GuardError(f"level must be in [0, {inst.modulus.n - 1}], got {top_level}")
            plan = _plan_pow2(self.sched, top_level)
        elif level is not None:
            raise GuardError("level applies to N = 2^n only")
        else:
            plan = plan_interval(self.sched, self.N)
        wave = self.wave
        if wave is not None and inst.q_queries != wave.start + wave.row * wave.k:
            self.wave = _Wave(wave.k, wave.dtype)
        ledger.per_stage += plan
        self.ledger, self.plan = ledger, plan
        self._invocation = 0
        t0 = time.perf_counter()
        top = len(plan) - 1
        tries = RETRY_FACTOR * math.ceil(4 / P_PRIOR)
        for _ in range(tries):
            label = self._run(top, 1)[0]
            if self.pow2:
                if two_adic_valuation(label) == top_level:
                    break
            elif label == 1:
                break
            ledger.elements_wasted += 1  # a dropped output of the top stage
            if top >= 0:
                plan[top].discarded += 1
            else:
                ledger.raw_discarded += 1
        else:
            name = "pow2_top" if self.pow2 else "small_one"  # failed solve lines print these
            raise RetryExhaustedError(f"no {name} element after {tries} candidates")
        ledger.wall_seconds += time.perf_counter() - t0
        ledger.check_consistent()
        return inst.derive_element(label, scale)

    def _raw(self, n: int) -> np.ndarray:
        """Draw n raw labels, one query each, and charge them in one step."""
        self.ledger.q_queries += n
        self.ledger.elements_generated += n
        return self.inst.sample_labels(n)

    def _run(self, i: int, need: int) -> list[int]:
        """The next need outputs of stage i, in order; raw labels, as ints,
        for i < 0.

        Stage i's row of the plan is also its ledger row. Each output may
        spend RETRY_FACTOR * ceil(k / P_PRIOR) invocations: the allowance
        is reset after every success, and a stage that spends it raises
        RetryExhaustedError. Brute force at k <= KERNEL_K_MAX runs on the
        kernel. Each pass of the loop makes one step:
        - stage 0 with a wave: one brute_run call on the wave's next rows,
          until the need is met, the allowance is spent or the wave ends.
          The labels of the rows it ran are then drawn in one step, after
          checking that the stream is still at those rows' position
          (AccountingError if not), before any next wave is built;
        - a later kernel stage: one brute_run call on the one-row table of
          the k inputs it asks stage i - 1 for in one batch, since it
          cannot run before it holds them all, built from a 1-D array of
          the table_dtype of k inputs below N (power-of-two) or b_in
          (interval), int32 wherever a wave would be;
        - any other stage: one combine_labels call on its k inputs, with
          the solver seed derived from the stage and an invocation counter
          that only this step advances.
        Input labels need no magnitude check: power-of-two sums may wrap
        (_Wave), and plan_interval keeps interval labels in sums_fit. The
        stage's row is charged once per call. The recursion is as deep as
        the plan is long, at most 63 stages (N <= 2^63 - 1, r >= 1 per
        stage).
        """
        if i < 0:
            return self._raw(need).tolist()
        row = self.plan[i]
        k = row.k
        where = row.a if row.routine == POW2 else row.b_in
        kernel = self.sched.solver_id == BRUTE and k <= KERNEL_K_MAX
        wave = self.wave if i == 0 else None
        left = cap = RETRY_FACTOR * math.ceil(k / P_PRIOR)
        outs: list[int] = []
        runs = ops = mem = 0
        while len(outs) < need and left:
            if kernel:
                if wave is None:
                    dtype = table_dtype(k, (self.N if row.b_in is None else row.b_in) - 1)
                    inputs = np.array(self._run(i - 1, k), dtype=dtype)
                    table, j, residues = subset_sums(inputs).reshape(1, -1), 0, None
                else:
                    if wave.row == len(wave.table):
                        wave.build(self.inst)
                    table, j, residues = wave.table, wave.row, None
                    if row.routine == POW2 and row.r <= 8:  # residues mod 2^r fit a byte
                        residues = wave.residue_bytes(row.r)
                got, n, peak, left = brute_run(
                    table, j, row.routine, row.r, where, self.N, self.rng,
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
                labels = self._run(i - 1, k)  # the inputs' invocations count first
                self._invocation += 1
                label, _, _, _, solver_ops, peak = combine_labels(
                    labels, row.routine, row.r, where, self.N, self.sched.solver_id, self.rng,
                    derive(self.solver_seed, i, self._invocation),
                )
                got, n = ([] if label is None else [label]), 1
                left = left - 1 if label is None else cap
                ops += solver_ops
            runs += n
            mem = max(mem, peak)
            outs += got
        failures = runs - len(outs)
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
                f"stage {i} (k={k}, r={row.r}, {row.routine}) exhausted "
                f"{cap} invocations without a success"
            )
        return outs


def run_pipeline(
    inst: HiddenShiftInstance,
    sched: Schedule,
    rng: random.Random | None = None,
    *,
    level: int | None = None,
    scale: int = 1,
) -> tuple[PhaseElement, CostLedger]:
    """Produce one element and a fresh ledger of what it cost: a Pipeline
    asked for one element (Pipeline.element).

    N = 2^n: returns an element whose label has 2-adic valuation exactly
    `level` (default n-1), built from the schedule prefix covering `level`
    bits. Odd N: returns an element with label exactly 1, built by interval
    stages until the label bound reaches 2, dropping label-0 outputs; a
    level is a GuardError. Any other N, or a schedule with a stage of the
    routine N does not take, is a GuardError before any label is drawn.
    `scale` propagates to sampled elements so callers can run the pipeline
    in rescaled label coordinates.

    Each stage gets a retry budget of RETRY_FACTOR * ceil(k / P_PRIOR)
    invocations per demanded output, and at most RETRY_FACTOR * ceil(4 /
    P_PRIOR) top-stage outputs are drawn; exceeding either raises
    RetryExhaustedError. Every solve runs its solver's one configuration
    (subset_sum.solve). Solver seeds, and rng unless given, derive from
    inst.seed ("solver" and "pipeline" paths).
    """
    ledger = CostLedger()
    return Pipeline(inst, sched, rng).element(ledger, level=level, scale=scale), ledger
