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

run_pipeline runs the stages on plain int labels. A demand loop asks the top
stage for an output; a stage short of inputs asks the stage below, and stage
0 draws its k raw labels from the instance in one step. Every invocation is
one call of the label-level combination core, inputs are consumed whatever
the outcome, and only the element handed back becomes a PhaseElement. The
CostLedger it fills has per-stage rows that sum to its totals.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

# combine_pow2/combine_interval stay importable here: perfbench's tracer wraps these names
from .combine import combine_interval, combine_labels, combine_pow2  # noqa: F401
from .errors import AccountingError, GuardError, RetryExhaustedError
from .group_arith import ceil_div, ceil_log2, two_adic_valuation
from .instance import HiddenShiftInstance, PhaseElement
from .kinds import BRUTE, INTERVAL, POW2, POW2_TOP, ROUTINES, SEEDED_SOLVERS, SOLVERS, TARGETS
from .seeds import derive, label_path
from .subset_sum.solvers import sums_fit


@dataclass(frozen=True)
class StageSpec:
    """One pipeline stage: consume k elements, gain r bits."""

    k: int
    r: int
    routine: str = POW2

    def __post_init__(self) -> None:
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
    stages = tuple(StageSpec(d["k"], d["r"], d.get("routine", POW2)) for d in doc["stages"])
    return Schedule(stages, doc.get("solver", BRUTE), dict(doc.get("params", {})))


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
        k = max(2, min(64, int(round(width_at(i)))))
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
    if beta < 0:
        raise GuardError(f"beta must be >= 0, got {beta}")
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


class _Engine:
    """The stages of one run_pipeline call, run on int labels."""

    def __init__(
        self,
        inst: HiddenShiftInstance,
        sched: Schedule,
        plan: list[_PlanStage],
        rng: random.Random,
        budget: int | None,
        solver_seed: int,
        retry_factor: int,
        p_prior: float,
        solver_params: dict | None,
    ):
        self.inst = inst
        self.plan = plan
        self.rng = rng
        self.budget = budget
        self.solver_id = sched.solver_id
        self.solver_seed = solver_seed
        self.seeded = sched.solver_id in SEEDED_SOLVERS
        self.solver_params = solver_params
        self.ledger = CostLedger()
        self.stats = [
            StageStats(i, st.k, st.r, st.routine, b_in=st.b_in) for i, st in enumerate(plan)
        ]
        self.ledger.per_stage = self.stats
        self.caps = [retry_factor * math.ceil(st.k / p_prior) for st in plan]
        self._invocation = 0

    def _raw(self, n: int) -> list[int]:
        """Draw n raw labels, one query each, and charge them in one step."""
        self.ledger.q_queries += n
        self.ledger.elements_generated += n
        return self.inst.sample_labels(n)

    def _invoke(self, i: int, labels: list[int]) -> int | None:
        """One invocation of stage i on its k input labels; its output label,
        or None on failure. Every invocation advances the counter behind the
        solver seed, though only seeded solvers get derive()'s value."""
        st = self.plan[i]
        self._invocation += 1
        seed = derive(self.solver_seed, i, self._invocation) if self.seeded else 0
        where = st.a if st.routine == POW2 else st.b_in
        label, _, _, _, ops, mem = combine_labels(
            labels, st.routine, st.r, where, self.inst.modulus.N, self.solver_id, self.rng,
            self.budget, seed, self.solver_params,
        )
        row = self.stats[i]
        row.invocations += 1
        row.consumed += st.k
        row.solver_ops += ops
        row.mem_peak = max(row.mem_peak, mem)
        self.ledger.solver_ops += ops
        self.ledger.mem_peak_cells = max(self.ledger.mem_peak_cells, mem)
        if label is None:
            row.failures += 1
            self.ledger.elements_wasted += st.k
        else:
            row.successes += 1
            row.produced += 1
        return label

    def next_label(self) -> int:
        """One output label of the top stage; a raw label for an empty plan.

        The demand loop keeps, per stage, the inputs gathered for its next
        invocation (ins) and the invocations its current demand may still
        spend (left). Stage i short of inputs demands one output of stage
        i - 1, which gets a fresh allowance of caps[i - 1]; an output climbs
        back to the stage that demanded it. A stage whose allowance runs out
        raises RetryExhaustedError.
        """
        plan = self.plan
        top = len(plan) - 1
        if top < 0:
            return self._raw(1)[0]
        ins: list[list[int]] = [[] for _ in plan]
        left = list(self.caps)
        i = top
        while True:
            k = plan[i].k
            if i == 0:
                labels = self._raw(k)
            elif len(ins[i]) < k:
                i -= 1
                left[i] = self.caps[i]
                continue
            else:
                labels, ins[i] = ins[i], []
            label = self._invoke(i, labels)
            if label is None:
                left[i] -= 1
                if not left[i]:
                    st = plan[i]
                    raise RetryExhaustedError(
                        f"stage {i} (k={st.k}, r={st.r}, {st.routine}) exhausted "
                        f"{self.caps[i]} invocations without a success"
                    )
            elif i == top:
                return label
            else:
                i += 1
                ins[i].append(label)

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
    budget: int | None = None,
    solver_seed: int | None = None,
    solver_params: dict | None = None,
    retry_factor: int = 10,
    p_prior: float = 0.25,
) -> tuple[PhaseElement, CostLedger]:
    """Produce one target element and the ledger of what it cost.

    POW2_TOP (N = 2^n): returns an element whose label has 2-adic valuation
    exactly `level` (default n-1), built from the schedule prefix covering
    `level` bits. SMALL_ONE (odd N): returns an element with label exactly 1,
    built by interval stages until the label bound reaches 2, dropping
    label-0 outputs. `scale` propagates to sampled elements so callers can
    run the pipeline in rescaled label coordinates.

    Each stage gets a retry budget of retry_factor * k / p_prior invocations
    per demanded output; exceeding it raises RetryExhaustedError.
    """
    if target not in TARGETS:
        raise GuardError(f"unknown target {target!r}")
    if rng is None:
        rng = random.Random(derive(inst.seed, label_path("pipeline")))
    if solver_seed is None:
        solver_seed = derive(inst.seed, label_path("solver"))
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

    eng = _Engine(inst, sched, plan, rng, budget, solver_seed, retry_factor, p_prior, solver_params)
    t0 = time.perf_counter()
    top = len(plan) - 1
    tries = retry_factor * math.ceil(4 / p_prior)
    result: PhaseElement | None = None
    for _ in range(tries):
        label = eng.next_label()
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
