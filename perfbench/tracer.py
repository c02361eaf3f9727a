"""Outside-in layer timing for shiftlab.

shiftlab's modules import their collaborators with ``from .x import y``, so a
call such as ``combine.solve(...)`` resolves ``solve`` in the *calling*
module's namespace. Tracing therefore replaces the names callers actually
look up (``shiftlab.combine.solve``, ``shiftlab.pipeline.combine_pow2``, ...)
and two methods on ``HiddenShiftInstance``, records spans in memory, and puts
every original back in ``restore``. Nothing under ``src/`` is modified.

Each span holds its id, its parent's id, the operation it belongs to, its
layer and its start and end in integer nanoseconds. Self time is the span's
duration minus the durations of the wrapped calls it made directly; in
integer nanoseconds that is exact, so self times are never negative and the
self times of all spans plus the aggregated sampling time add up to the
duration of the root spans. ``sample_element`` runs about 0.6M times per
odd-N recovery, so it is folded into running sums instead of spans.

The gauge's calibration kernel (gauge.py) runs from a signal handler, so it
can land anywhere, including between a wrapper's clock read and its stack
push. ``on_kernel`` therefore only files the kernel's (start, duration) with
the innermost open span; when that span closes, kernels inside its
[t0, t1] become its pseudo-child "calibration" and the rest are handed to
its parent. A frame is pushed before t0 is read and popped after t1 is read,
so a kernel filed with a span but outside its interval always lies in the
parent's own time.
"""

from __future__ import annotations

import functools
import statistics
import time

from shiftlab.kinds import SOLVERS


class Tracer:
    """Wraps shiftlab's layer boundaries; one instance per traced phase."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, int, int, int]] = []
        self.op = -1
        self.sample_calls = 0
        self.sample_ns = 0
        self.calibration_ns = 0
        self._stack: list[list] = []  # open spans: [span_id, t0_ns, child_ns, kernels]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self.calls = dict.fromkeys(
            ("recover", "pipeline", "combine", "subset_sum", "measure", "verify"), 0
        )
        self.measure_calls = 0
        self.verify_ok = 0
        self.pipeline_queries = 0
        self.pipeline_generated = 0
        self.pipeline_wasted = 0
        self.combine_ok = 0
        self.combine_failures = {"projection": 0, "rejection": 0}
        self.solve_ops = 0
        self.solve_mem_peak = 0
        self.solve_unstable = 0
        self.solver_ns = dict.fromkeys(SOLVERS, 0)
        self.solver_ops = dict.fromkeys(SOLVERS, 0)

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary; pair with restore() in a finally block."""
        import shiftlab
        import shiftlab.combine
        import shiftlab.pipeline
        import shiftlab.recover
        import shiftlab.subset_sum
        from shiftlab.instance import HiddenShiftInstance

        self._patch(shiftlab, "recover_pow2", "recover", None)
        self._patch(shiftlab, "recover_odd", "recover", None)
        self._patch(shiftlab.recover, "run_pipeline", "pipeline", self._after_pipeline)
        self._patch(shiftlab.recover, "classical_verify", "verify", self._after_verify)
        self._patch(shiftlab.recover, "measure_with_correction", "measure", None)
        self._patch(HiddenShiftInstance, "measure_element", "measure", self._after_measure)
        self._patch(shiftlab.pipeline, "combine_pow2", "combine", self._after_combine)
        self._patch(shiftlab.pipeline, "combine_interval", "combine", self._after_combine)
        self._patch(shiftlab.combine, "solve", "subset_sum", self._after_solve)
        self._patch(shiftlab.subset_sum, "solve", "subset_sum", self._after_solve)
        original = HiddenShiftInstance.__dict__["sample_element"]
        self._patches.append((HiddenShiftInstance, "sample_element", original))
        setattr(HiddenShiftInstance, "sample_element", self._sampler(original))

    def restore(self) -> list[str]:
        """Put every original back; returns the names that still differ."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        left = [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in self._patches if vars(owner)[attr] is not original]
        self._patches.clear()
        return left

    def _patch(self, owner, attr: str, layer: str, after) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._spanned(original, layer, after))

    def _spanned(self, fn, layer: str, after):
        tracer = self
        clock = time.perf_counter_ns
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0, 0, None]
            stack.append(frame)
            frame[1] = t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if frame[3]:
                    tracer._settle(frame, t1)
                dur = t1 - t0
                if stack:
                    stack[-1][2] += dur
                self_ns = dur - frame[2]
                tracer.spans.append((span_id, parent, tracer.op, layer, t0, t1, self_ns))
                calls[layer] += 1
            if after is not None:
                after(result, self_ns)
            return result

        return wrapper

    def _sampler(self, fn):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def sample_element(inst, *args, **kwargs):
            t0 = clock()
            elem = fn(inst, *args, **kwargs)
            t1 = clock()
            dt = t1 - t0
            stack = tracer._stack
            if stack:
                top = stack[-1]
                if top[3]:  # a kernel ran in the open span, maybe during this call
                    dt -= sum(ns for start, ns in top[3] if t0 <= start and start + ns <= t1)
                top[2] += dt
            tracer.sample_calls += 1
            tracer.sample_ns += dt
            return elem

        return sample_element

    def on_kernel(self, start_ns: int, ns: int) -> None:
        """Gauge callback: file a kernel run with the innermost open span."""
        if self._stack:
            frame = self._stack[-1]
            if frame[3] is None:
                frame[3] = []
            frame[3].append((start_ns, ns))

    def _settle(self, frame: list, t1: int) -> None:
        """Charge a closing span's kernels to it, or pass them to its parent."""
        for start, ns in frame[3]:
            if frame[1] <= start and start + ns <= t1:
                frame[2] += ns
                self.calibration_ns += ns
            elif self._stack:
                self.on_kernel(start, ns)

    # -- per-layer outcome tallies ---------------------------------------------

    def _after_pipeline(self, result, _self_ns) -> None:
        ledger = result[1]
        self.pipeline_queries += ledger.q_queries
        self.pipeline_generated += ledger.elements_generated
        self.pipeline_wasted += ledger.elements_wasted

    def _after_verify(self, ok, _self_ns) -> None:
        self.verify_ok += bool(ok)

    def _after_measure(self, _result, _self_ns) -> None:
        self.measure_calls += 1

    def _after_combine(self, outcome, _self_ns) -> None:
        if outcome.ok:
            self.combine_ok += 1
        else:
            self.combine_failures[outcome.failure] = (
                self.combine_failures.get(outcome.failure, 0) + 1
            )

    def _after_solve(self, sol, self_ns) -> None:
        self.solve_ops += sol.op_count
        self.solve_mem_peak = max(self.solve_mem_peak, sol.mem_peak)
        if sol.stats.get("stable") is False:
            self.solve_unstable += 1
        solver = sol.stats.get("solver")
        if solver in self.solver_ns:
            self.solver_ns[solver] += self_ns
            self.solver_ops[solver] += sol.op_count

    # -- results -----------------------------------------------------------------

    def self_ns(self) -> dict[str, int]:
        """Self time per layer, plus pseudo-layers "sample" and "calibration"."""
        out = dict.fromkeys(self.calls, 0)
        for span in self.spans:
            out[span[3]] += span[6]
        out["sample"] = self.sample_ns
        out["calibration"] = self.calibration_ns
        return out

    def root_ns(self) -> int:
        """Summed duration of the spans no wrapped call encloses."""
        return sum(s[5] - s[4] for s in self.spans if s[1] == -1)

    def check(self) -> list[str]:
        """Tracer invariants; returns the list of violations (empty when sound)."""
        problems = []
        negative = sum(1 for s in self.spans if s[6] < 0)
        if negative:
            problems.append(f"{negative} spans with negative self time")
        if self._stack:
            problems.append(f"{len(self._stack)} spans left open")
        total_self = sum(self.self_ns().values())
        if total_self != self.root_ns():
            problems.append(f"self times sum to {total_self} ns, root spans to {self.root_ns()} ns")
        return problems

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name, as (value, unit)."""
        ns = self.self_ns()
        sec = {layer: v / 1e9 for layer, v in ns.items()}
        pipeline_durs = [(s[5] - s[4]) / 1e9 for s in self.spans if s[3] == "pipeline"]
        solve_s = sec["subset_sum"]
        combines = self.calls["combine"]
        m: dict[str, tuple[float, str]] = {
            "instance.sample_calls": (self.sample_calls, "count"),
            "instance.sample_s": (sec["sample"], "s"),
            "instance.sample_ns_per_call": (_ratio(ns["sample"], self.sample_calls), "ns"),
            "instance.measure_calls": (self.measure_calls, "count"),
            "instance.measure_s": (sec["measure"], "s"),
            "instance.verify_calls": (self.calls["verify"], "count"),
            "instance.verify_s": (sec["verify"], "s"),
            "pipeline.calls": (self.calls["pipeline"], "count"),
            "pipeline.self_s": (sec["pipeline"], "s"),
            "pipeline.element_p50_s": (percentile(pipeline_durs, 50), "s"),
            "pipeline.element_p90_s": (percentile(pipeline_durs, 90), "s"),
            "pipeline.q_queries": (self.pipeline_queries, "count"),
            "pipeline.useful_frac": (
                1 - _ratio(self.pipeline_wasted, self.pipeline_generated)
                if self.pipeline_generated else 0.0,
                "frac",
            ),
            "combine.calls": (combines, "count"),
            "combine.self_s": (sec["combine"], "s"),
            "combine.success_frac": (_ratio(self.combine_ok, combines), "frac"),
            "combine.projection_failures": (self.combine_failures["projection"], "count"),
            "combine.rejection_failures": (self.combine_failures["rejection"], "count"),
            "subset_sum.calls": (self.calls["subset_sum"], "count"),
            "subset_sum.s": (solve_s, "s"),
            "subset_sum.us_per_call": (1e6 * _ratio(solve_s, self.calls["subset_sum"]), "us"),
            "subset_sum.ops": (self.solve_ops, "count"),
            "subset_sum.ops_per_s": (_ratio(self.solve_ops, solve_s), "1/s"),
            "subset_sum.mem_peak_cells": (self.solve_mem_peak, "count"),
            "subset_sum.unstable": (self.solve_unstable, "count"),
        }
        for solver in SOLVERS:
            m[f"subset_sum.{solver}.s"] = (self.solver_ns[solver] / 1e9, "s")
            m[f"subset_sum.{solver}.ops"] = (self.solver_ops[solver], "count")
        m.update({
            "recover.calls": (self.calls["recover"], "count"),
            "recover.attempts": (self.calls["verify"], "count"),
            "recover.self_s": (sec["recover"], "s"),
            "recover.success_frac": (_ratio(self.verify_ok, self.calls["verify"]), "frac"),
        })
        return m

    def write_spans(self, path) -> None:
        """Dump every span as CSV (sampling is aggregated, see metrics())."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,op,layer,t0_ns,t1_ns,self_ns\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile(values: list[float], pct: int) -> float:
    """Inclusive-method percentile; 0.0 for an empty sample."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
