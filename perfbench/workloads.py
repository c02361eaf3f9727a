"""The benchmark's seeded workloads, driven through shiftlab's public API.

A workload is split into *units*: one recovery for the recovery workloads,
one full pass over the solver grid for the sweep. ``prepare(seed, unit)``
builds a unit's inputs (untimed); ``run(prepared, clock)`` executes it,
timing each library call on its own with ``clock`` (a ``Gauge.read``), and
returns one Record per call. Unit inputs are a
pure function of (seed, unit), so a unit can be replayed with tracing on and
must reproduce every deterministic counter.

Library entry points are looked up as module attributes at call time
(``shiftlab.recover_pow2``, ``subset_sum.solve``), which is what lets the
tracer wrap them from outside.

Why these three workloads:

* pow2-k8: N = 2^16, uniform k = 8, brute solver; the README quick start and
  acceptance criterion 5. Many small pow2 combinations, so pipeline
  bookkeeping and combine self time each carry about a fifth of the run, and
  it is the only workload cheap enough for a recovery-latency tail.
* odd-k12: N = 1000003, uniform k = 12, interval routine, brute solver
  (ROADMAP W2). About 0.6M queries per recovery, so label service and the
  pipeline pools carry their heaviest load here, and combine_interval plus
  the semiclassical-IQFT readout run only here.
* solver-sweep: subset_sum.solve alone on seeded random instances of both
  flavors, no instance, pipeline or combine work. Few wide list-merge solves
  instead of many tiny brute ones, so a pipeline gain should leave it
  unchanged while a solver gain shows.
"""

from __future__ import annotations

import random
import traceback
from dataclasses import dataclass

import shiftlab
from shiftlab import CostLedger, new_instance, schedule_uniform
from shiftlab import subset_sum
from shiftlab.kinds import INTERVAL, POW2
from shiftlab.seeds import derive


@dataclass
class Record:
    """One timed library call."""

    unit: int
    kind: str            # "recovery" or the solver id
    seconds: float       # wall seconds, calibration kernel excluded
    ref_seconds: float   # the same interval in reference seconds (see gauge.py)
    items: int           # simulated queries (recovery) or 1 (solve)
    counters: tuple      # deterministic outputs the determinism guard compares
    error: str | None    # why the call counts as failed; None when correct
    exact: bool | None = None  # sweep only: solution set equals the reference


def _describe(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


class RecoveryWorkload:
    """Closed-loop end-to-end recoveries, seeded like ``shiftlab solve``.

    Unit idx recovers the secret of new_instance(N, seed=derive(seed, idx))
    with pipeline rng Random(derive(run_seed, 1)), exactly the per-run
    streams of the CLI's solve subcommand.
    """

    def __init__(self, name: str, N: int, k: int, odd: bool, reference_units: int):
        self.name = name
        self.N = N
        self.odd = odd
        self.reference_units = reference_units
        n = (N - 1).bit_length() if odd else N.bit_length() - 1
        self.schedule = schedule_uniform(n, k, INTERVAL if odd else POW2)

    def prepare(self, seed: int, unit: int):
        run_seed = derive(seed, unit)
        inst = new_instance(self.N, seed=run_seed)
        return unit, inst, random.Random(derive(run_seed, 1))

    def run(self, prepared, clock) -> list[Record]:
        unit, inst, rng = prepared
        recover = shiftlab.recover_odd if self.odd else shiftlab.recover_pow2
        ledger = CostLedger()
        error = None
        s_found = None
        ref0, wall0 = clock()
        try:
            s_found = recover(inst, self.schedule, rng=rng, ledger=ledger)
        except Exception as exc:  # any exception is a failed operation, not a crash
            error = _describe(exc)
        ref1, wall1 = clock()
        if error is None and s_found != inst.reveal_secret():
            error = f"recovered {s_found}, secret is {inst.reveal_secret()}"
        counters = (ledger.q_queries, ledger.c_queries, ledger.solver_ops,
                    ledger.mem_peak_cells, s_found)
        return [Record(unit, "recovery", wall1 - wall0, ref1 - ref0, ledger.q_queries,
                       counters, error)]


# Solver grid of the sweep: widths per solver and instances per width and
# flavor. Counts give every solver a similar share of a pass (about 2-2.5 s
# each on a 2-core Xeon): per-instance times there were brute 15/80 ms at
# k = 20/24, mitm 0.6/1.3/5 ms and ss 10/20/42 ms at k = 20/24/28,
# memless 0.4/0.8 s at k = 20/24 and rep 0.13/0.36 s at k = 16/20.
SWEEP_GRID: dict[str, dict[int, int]] = {
    "mitm": {20: 160, 24: 160, 28: 160},
    "brute": {20: 12, 24: 12},
    "ss": {20: 16, 24: 16, 28: 16},
    "rep": {16: 3, 20: 2},
    "memless": {20: 1, 24: 1},
}
SWEEP_FLAVORS = ("modular", "interval")
_FLAVOR_TAG = {"modular": 1, "interval": 2}


class SweepWorkload:
    """subset_sum.solve alone on seeded random_instance draws, r = k - 1.

    Instance i of (flavor, k) in pass p is drawn from
    Random(derive(seed, p, flavor_tag, k, i)) and is shared by every solver
    whose count at k exceeds i, so all of them are cross-checked on the same
    problem. The reference set is mitm's (timed when mitm is scheduled on
    the instance, else an untimed solve_mitm call); brute's set, where brute
    runs, is a second reference. Exact solvers (exhausted=True) must match
    both; probabilistic ones (exhausted=False) may return a subset, which is
    recorded as not exact rather than failed.
    """

    reference_units = 1

    def __init__(self, name: str = "solver-sweep", grid: dict[str, dict[int, int]] = SWEEP_GRID):
        self.name = name
        self.grid = grid

    def prepare(self, seed: int, unit: int):
        groups = []
        for flavor in SWEEP_FLAVORS:
            for k in sorted({k for ks in self.grid.values() for k in ks}):
                size = max(ks.get(k, 0) for ks in self.grid.values())
                for i in range(size):
                    rng = random.Random(derive(seed, unit, _FLAVOR_TAG[flavor], k, i))
                    problem = subset_sum.random_instance(flavor, k, k - 1, rng)
                    solvers = [s for s, ks in self.grid.items() if ks.get(k, 0) > i]
                    groups.append((problem, solvers, derive(seed, unit, k, i)))
        return unit, groups

    def run(self, prepared, clock) -> list[Record]:
        unit, groups = prepared
        records = []
        for problem, solvers, solver_seed in groups:
            refs = []
            if "mitm" not in solvers:
                refs.append(subset_sum.solve_mitm(problem))
            for solver in solvers:
                records.append(self._solve(unit, problem, solver, solver_seed, refs, clock))
        return records

    def _solve(self, unit, problem, solver, solver_seed, refs, clock) -> Record:
        ref0, wall0 = clock()
        try:
            sol = subset_sum.solve(problem, solver, seed=solver_seed)
        except Exception as exc:  # any exception is a failed operation, not a crash
            ref1, wall1 = clock()
            return Record(unit, solver, wall1 - wall0, ref1 - ref0, 1, (solver,), _describe(exc))
        ref1, wall1 = clock()
        error = None
        wrong = next((m for m in sol.solutions if not problem.check(m)), None)
        if wrong is not None:
            error = f"{solver} returned mask {wrong} that fails check"
        elif any(not sol.solutions <= ref.solutions for ref in refs):
            error = f"{solver} found a solution the reference set lacks"
        exact = all(sol.solutions == ref.solutions for ref in refs)
        if error is None and sol.exhausted and not exact:
            error = f"exact solver {solver} disagrees with the reference set"
        if solver in ("mitm", "brute") and error is None:
            refs.append(sol)
        counters = (solver, problem.flavor, problem.k, sol.op_count, sol.mem_peak, sol.solutions)
        return Record(unit, solver, wall1 - wall0, ref1 - ref0, 1, counters, error, exact)


WORKLOADS = {
    "pow2-k8": lambda: RecoveryWorkload("pow2-k8", 1 << 16, 8, odd=False, reference_units=20),
    "odd-k12": lambda: RecoveryWorkload("odd-k12", 1000003, 12, odd=True, reference_units=1),
    "solver-sweep": SweepWorkload,
}
