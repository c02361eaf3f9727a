"""Element-level reference for run_pipeline (test-only).

This is the recursive engine the pipeline used before it moved to int
labels: every raw label is a PhaseElement from sample_element, every stage
output an element from combine_pow2/combine_interval, and a demanded input
is produced by recursing into the stage below. It charges the same
CostLedger, derives every solver seed from the global invocation count and
shares the rng in demand order, so for equal arguments it must return what
run_pipeline returns, byte for byte.
"""

from __future__ import annotations

import math
import random

from shiftlab.combine import combine_interval, combine_pow2
from shiftlab.errors import GuardError, RetryExhaustedError
from shiftlab.group_arith import two_adic_valuation
from shiftlab.kinds import POW2
from shiftlab.pipeline import P_PRIOR, RETRY_FACTOR, CostLedger, _plan_pow2, plan_interval
from shiftlab.seeds import derive, label_path


class ReferenceEngine:
    def __init__(self, inst, sched, plan, rng, scale, solver_seed):
        self.inst = inst
        self.sched = sched
        self.plan = plan
        self.rng = rng
        self.scale = scale
        self.solver_seed = solver_seed
        self.ledger = CostLedger()
        self.ledger.per_stage = plan  # the plan's rows are the ledger's
        self.caps = [RETRY_FACTOR * math.ceil(st.k / P_PRIOR) for st in plan]
        self.invocation = 0

    def raw(self):
        self.ledger.q_queries += 1
        self.ledger.elements_generated += 1
        return self.inst.sample_element(self.scale)

    def take(self, depth):
        return self.raw() if depth < 0 else self.produce(depth)

    def produce(self, i):
        row = self.plan[i]
        for _ in range(self.caps[i]):
            ins = [self.take(i - 1) for _ in range(row.k)]
            self.invocation += 1
            seed_i = derive(self.solver_seed, i, self.invocation)
            if row.routine == POW2:
                combine, where = combine_pow2, row.a
            else:
                combine, where = combine_interval, row.b_in
            out = combine(
                ins, row.r, where, self.sched.solver_id,
                rng=self.rng, solver_seed=seed_i,
            )
            row.invocations += 1
            row.consumed += row.k
            row.solver_ops += out.solver_ops
            row.mem_peak = max(row.mem_peak, out.solver_mem)
            self.ledger.solver_ops += out.solver_ops
            self.ledger.mem_peak_cells = max(self.ledger.mem_peak_cells, out.solver_mem)
            if out.ok:
                row.successes += 1
                row.produced += 1
                return out.result
            row.failures += 1
            self.ledger.elements_wasted += row.k
        raise RetryExhaustedError(f"stage {i} exhausted {self.caps[i]} invocations")

    def discard(self, elem, depth):
        elem.consume()
        self.ledger.elements_wasted += 1
        if depth >= 0:
            self.plan[depth].discarded += 1
        else:
            self.ledger.raw_discarded += 1


def reference_pipeline(inst, sched, rng=None, *, level=None, scale=1):
    """run_pipeline's contract, computed by the element-level engine: N = 2^n
    asks for an element of 2-adic level `level`, odd N for label 1."""
    if rng is None:
        rng = random.Random(derive(inst.seed, label_path("pipeline")))
    solver_seed = derive(inst.seed, label_path("solver"))
    mod = inst.modulus
    if mod.is_pow2:
        top_level = mod.n - 1 if level is None else level
        plan = _plan_pow2(sched, top_level)
    else:
        if level is not None:
            raise GuardError("level applies to N = 2^n only")
        plan = plan_interval(sched, mod.N)
    eng = ReferenceEngine(inst, sched, plan, rng, scale, solver_seed)
    top = len(plan) - 1
    for _ in range(RETRY_FACTOR * math.ceil(4 / P_PRIOR)):
        elem = eng.take(top)
        if mod.is_pow2:
            if two_adic_valuation(elem.label) == top_level:
                return elem, eng.ledger
        elif elem.label == 1:
            return elem, eng.ledger
        eng.discard(elem, top)
    raise RetryExhaustedError("no top element")
