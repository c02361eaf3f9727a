"""Self-test of the benchmark's tracer on tiny seeded workloads.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

For a tiny power-of-two recovery, a tiny odd-N recovery and a tiny solver
sweep, once with the gauge's normal calibration interval and once with a
5 ms interval that lands kernel runs inside every part of the tracer's
bookkeeping, it checks that

* no span has negative self time and none is left open;
* self times plus aggregated sampling and calibration time equal the root
  spans' time, and the root spans cover the benchmark-timed calls up to
  the benchmark loop's own time;
* every span's parent exists and belongs to the same operation;
* traced and untraced runs give identical deterministic counters;
* every wrapped name holds its original object again afterwards.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import sys

import gauge
import run

LOOP_SLACK = 0.05  # share of the timed calls the benchmark loop's own code may take


def snapshot():
    import shiftlab
    import shiftlab.combine
    import shiftlab.pipeline
    import shiftlab.recover
    import shiftlab.subset_sum
    from shiftlab.instance import HiddenShiftInstance

    names = [
        (shiftlab, "recover_pow2"), (shiftlab, "recover_odd"),
        (shiftlab.recover, "run_pipeline"), (shiftlab.recover, "classical_verify"),
        (shiftlab.recover, "measure_with_correction"),
        (shiftlab.pipeline, "combine_pow2"), (shiftlab.pipeline, "combine_interval"),
        (shiftlab.combine, "solve"), (shiftlab.subset_sum, "solve"),
        (HiddenShiftInstance, "sample_element"), (HiddenShiftInstance, "measure_element"),
    ]
    return {(owner, attr): vars(owner)[attr] for owner, attr in names}


def check_workload(wl, seed: int) -> list[str]:
    before = snapshot()
    plain, replay, t, problems = run.traced(wl, seed, 0.0, None)
    problems = [f"{wl.name}: {p}" for p in problems]
    problems += [f"{wl.name}: {d}" for d in run.mismatches(plain, replay)]
    if any(vars(owner)[attr] is not fn for (owner, attr), fn in before.items()):
        problems.append(f"{wl.name}: a wrapped name differs from its original")

    timed_ns = sum(r.seconds for r in replay) * 1e9  # calibration kernel excluded
    root_ns = t.root_ns() - t.calibration_ns
    if not 0 <= timed_ns - root_ns <= LOOP_SLACK * timed_ns:
        problems.append(f"{wl.name}: root spans {root_ns} ns vs timed calls {timed_ns:.0f} ns")
    by_id = {s[0]: s for s in t.spans}
    orphans = [s for s in t.spans if s[1] != -1 and (s[1] not in by_id or by_id[s[1]][2] != s[2])]
    if orphans:
        problems.append(f"{wl.name}: {len(orphans)} spans with a missing or foreign parent")
    if not t.spans:
        problems.append(f"{wl.name}: no spans recorded")
    failed = [r.error for r in replay if r.error is not None]
    problems += [f"{wl.name}: failed call: {e}" for e in failed]
    print(f"{wl.name}: {len(t.spans)} spans, {t.sample_calls} sampled elements, "
          f"{len(problems)} problems")
    return problems


def main() -> int:
    run.import_shiftlab()
    import workloads

    cases = [
        workloads.RecoveryWorkload("tiny-pow2", 1 << 8, 4, odd=False, reference_units=3),
        workloads.RecoveryWorkload("tiny-odd", 1009, 6, odd=True, reference_units=2),
        workloads.SweepWorkload("tiny-sweep", {"mitm": {8: 3, 10: 3}, "brute": {8: 2},
                                               "ss": {10: 2}, "rep": {8: 1},
                                               "memless": {10: 1}}),
    ]
    problems = []
    for interval in (gauge.INTERVAL_S, 0.005):
        gauge.INTERVAL_S = interval
        print(f"calibration interval {interval} s")
        for seed, wl in enumerate(cases, start=1):
            problems += check_workload(wl, seed)
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
