"""shiftlab benchmark: seeded closed-loop workloads with layer attribution.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload pow2-k8 --seed 1 --seconds 30 --trace 0

One process, one caller: each recovery or solve starts when the previous
one returns (a closed loop with one client; --workers is never used). The
benchmark imports shiftlab from ./src of the checkout and refuses to run
without it.

--trace 0 measures the end-to-end metrics with no wrapper installed. Units
(recoveries, or sweep passes) run until about --seconds have passed (a unit
starts only while less than half a mean unit's time remains), and at least
the workload's reference units.

--trace 1 runs units untraced for half of --seconds, then replays exactly
those units with the tracer installed. The replay gives the per-layer
metrics, its time over the untraced time gives trace.overhead_frac, and
every deterministic counter of the two passes must agree (the determinism
guard; a mismatch exits with code 3).

Timings come from the benchmark's own clock around each library call: wall
time, and the same interval in reference seconds from the calibrated gauge
(gauge.py), which the gated metrics use. ledger.wall_seconds (the CLI's
wall_s) is deliberately not used: it sums pipeline calls only and leaves out
readout and classical_verify.

Every metric is printed as "name value unit"; the last line of stdout is the
JSON result object. A JSON report with the environment and the spans of a
traced run are written under .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import gauge

# tracer and workloads import shiftlab, so they are imported only after
# import_shiftlab() has put the checkout's src/ first on sys.path.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_PROBES = 5
KERNEL_RUNS = 5
PROBE_TIMEOUT_S = 60
EXIT_FAILED = 1
EXIT_NO_SOURCE = 2
EXIT_NONDETERMINISTIC = 3
EXIT_TRACER = 4


def import_shiftlab():
    """Import shiftlab from the checkout's src/, never from elsewhere."""
    if not (SRC / "shiftlab" / "__init__.py").is_file():
        print(f"perfbench: no shiftlab sources under {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_SOURCE)
    sys.path.insert(0, str(SRC))
    import shiftlab

    if Path(shiftlab.__file__).resolve().parent != SRC / "shiftlab":
        print(f"perfbench: imported shiftlab from {shiftlab.__file__}", file=sys.stderr)
        sys.exit(EXIT_NO_SOURCE)
    return shiftlab


def setup_probe(workload: str, seed: int) -> None:
    """Child side of the setup_s measurement: import, build, report ready,
    then time the calibration kernel in the same process."""
    import_shiftlab()
    import workloads

    wl = workloads.WORKLOADS[workload]()
    wl.prepare(seed, 0)
    print("ready", flush=True)
    print(" ".join(str(gauge.kernel_ns()) for _ in range(KERNEL_RUNS)), flush=True)


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(wall, reference) seconds from process launch until the workload is
    ready to time, once per fresh interpreter."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            kernel_times = proc.stdout.read().split()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or code != 0 or len(kernel_times) != KERNEL_RUNS:
            raise RuntimeError(f"setup probe failed with exit code {code}")
        samples.append((wall, gauge.reference_seconds(wall, [int(x) for x in kernel_times])))
    return samples


def drive(wl, seed: int, seconds: float, clock, first=None) -> tuple[list, int, float]:
    """Closed loop: run units for about `seconds` and at least the reference
    units. Returns the records, the number of units run, and the process's
    peak RSS in MB once the reference units were done."""
    records = []
    unit = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if unit >= wl.reference_units and elapsed + elapsed / max(unit, 1) / 2 >= seconds:
            break
        prepared = first if unit == 0 and first is not None else wl.prepare(seed, unit)
        records.extend(wl.run(prepared, clock))
        unit += 1
        if unit == wl.reference_units:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return records, unit, rss_mb


def record_metrics(wl, records: list, units: int) -> dict[str, tuple[float, str]]:
    """End-to-end and report metrics computed from the timed records."""
    import tracer

    run_s = sum(r.ref_seconds for r in records)
    wall_s = sum(r.seconds for r in records)
    items = sum(r.items for r in records)
    failed = sum(1 for r in records if r.error is not None)
    m = {
        "items_per_s": (items / run_s, "1/s"),
        "run_s": (run_s, "s"),
        "wall_items_per_s": (items / wall_s, "1/s"),
        "wall_run_s": (wall_s, "s"),
        "units": (units, "count"),
        "attempted": (len(records), "count"),
        "failed_frac": (failed / len(records), "frac"),
    }
    if records[0].kind == "recovery":
        lat = [r.ref_seconds for r in records]
        m["queries_per_s"] = (items / run_s, "1/s")
        m["recovery_samples"] = (len(lat), "count")
        m["recovery_p50_s"] = (statistics.median(lat), "s")
        if len(lat) >= 100:  # at least ten samples beyond the 90th percentile
            m["recovery_p90_s"] = (tracer.percentile(lat, 90), "s")
    return m


def sweep_metrics(records: list) -> dict[str, tuple[float, str]]:
    """Per-solver exactness against the reference sets (sweep only)."""
    from shiftlab.kinds import SOLVERS

    m = {}
    checked = [r for r in records if r.exact is not None]
    for solver in SOLVERS:
        mine = [r for r in checked if r.kind == solver]
        exact = sum(1 for r in mine if r.exact)
        m[f"subset_sum.{solver}.exact_frac"] = (exact / len(mine) if mine else 0.0, "frac")
    m["subset_sum.checked"] = (len(checked), "count")
    return m


def reference_counters(wl, records: list) -> dict[str, tuple[float, str]]:
    """Deterministic counter totals over the reference units."""
    ref = [r for r in records if r.unit < wl.reference_units]
    if ref[0].kind == "recovery":
        q, c, ops, mem, s_found = zip(*(r.counters for r in ref))
        q, c, ops, mem, s_sum = sum(q), sum(c), sum(ops), max(mem), sum(x or 0 for x in s_found)
    else:
        solved = [r.counters for r in ref if r.error is None]
        q = c = s_sum = 0
        ops = sum(x[3] for x in solved)
        mem = max((x[4] for x in solved), default=0)
    return {
        "counters.q_queries": (q, "count"),
        "counters.c_queries": (c, "count"),
        "counters.solver_ops": (ops, "count"),
        "counters.mem_peak": (mem, "count"),
        "counters.s_found_sum": (s_sum, "count"),
    }


def environment(args) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one caller, single process",
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git repository, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def traced(wl, seed: int, seconds: float, first):
    """Untraced units for half the time, then the same units traced."""
    import tracer

    t = tracer.Tracer()
    with gauge.Gauge(on_kernel=t.on_kernel) as g:
        plain, units, _ = drive(wl, seed, seconds / 2, g.read, first)
        replay = []
        t.install()
        try:
            for unit in range(units):
                prepared = wl.prepare(seed, unit)
                t.op = unit
                replay.extend(wl.run(prepared, g.read))
        finally:
            left = t.restore()
    problems = t.check() + [f"{name} was not restored" for name in left]
    return plain, replay, t, problems


def mismatches(a: list, b: list) -> list[str]:
    out = []
    if len(a) != len(b):
        return [f"{len(a)} untraced records, {len(b)} traced"]
    for x, y in zip(a, b):
        if x.counters != y.counters:
            out.append(f"unit {x.unit} {x.kind}: untraced {x.counters[:5]} traced {y.counters[:5]}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    import_shiftlab()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    setup = [] if args.trace else measure_setup(args.workload, args.seed)

    wl = workloads.WORKLOADS[args.workload]()
    first = wl.prepare(args.seed, 0)

    report: dict[str, tuple[float, str]] = {}
    problems: list[str] = []
    if args.trace:
        plain, replay, t, problems = traced(wl, args.seed, args.seconds, first)
        diffs = mismatches(plain, replay)
        if diffs:
            print("perfbench: traced and untraced runs disagree:", file=sys.stderr)
            for line in diffs[:10]:
                print("  " + line, file=sys.stderr)
            return EXIT_NONDETERMINISTIC
        records, units = replay, plain[-1].unit + 1
        traced_s = sum(r.ref_seconds for r in replay)
        untraced_s = sum(r.ref_seconds for r in plain)
        report.update(t.metrics())
        report["trace.overhead_frac"] = (traced_s / untraced_s - 1, "frac")
        report["trace.unattributed_s"] = (
            sum(r.seconds for r in replay) - (t.root_ns() - t.calibration_ns) / 1e9, "s")
        report["untraced_run_s"] = (untraced_s, "s")
        OUT_DIR.mkdir(exist_ok=True)
        t.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv")
    else:
        with gauge.Gauge() as g:
            records, units, rss_mb = drive(wl, args.seed, args.seconds, g.read, first)
        report["setup_s"] = (statistics.median(ref for _, ref in setup), "s")
        report["wall_setup_s"] = (statistics.median(wall for wall, _ in setup), "s")
        report["peak_rss_mb"] = (rss_mb, "MB")
        report["run_peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    report.update(record_metrics(wl, records, units))
    report.update(reference_counters(wl, plain if args.trace else records))
    if args.workload == "solver-sweep" or args.trace:
        report.update(sweep_metrics(records))

    failed = [r for r in records if r.error is not None]
    for r in failed[:10]:
        print(f"# failed unit {r.unit} {r.kind}: {r.error}", file=sys.stderr)
    for msg in problems:
        print(f"perfbench: tracer check failed: {msg}", file=sys.stderr)
    if problems:
        return EXIT_TRACER

    env = environment(args)
    for name, (value, unit) in report.items():
        print(f"{name} {value} {unit}")
    if setup:
        print(f"# setup samples (wall s, reference s): {setup}")
    print("# env " + json.dumps(env, sort_keys=True))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": report[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    OUT_DIR.mkdir(exist_ok=True)
    full = {"env": env, "result": result,
            "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()}}
    (OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if not failed else EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
