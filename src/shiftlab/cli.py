"""Command-line harness: seeded, machine-readable experiment runs.

Subcommands:

  solve       end-to-end shift recovery, one JSONL/CSV line per run
  subset-sum  solver benchmarks and oracle cross-checks, with scaling slopes
  validate    statevector-vs-label-level equivalence suites
  schedule    build, print, and validate stage schedules
  exponents   the closed-form cost tables (text, CSV, or JSON)

Determinism contract: one 64-bit master seed expands into per-run seeds
(derive(seed, run_index)), and each run derives its own instance, pipeline,
and solver streams from there. Results are therefore independent of worker
count, and identical (flags, seed) produce byte-identical output files.
Wall-clock timings would break that, so wall_s is emitted as null unless
--timings is given.

A config file (--config, key=value lines, # comments) can hold any long flag
name with underscores for dashes; explicit flags win over config values.

Exit codes: 0 success, 1 verification/oracle failure, 2 usage error,
3 guard violation.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import random
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from typing import TextIO

from .errors import GuardError, ShiftLabError, UsageError
from .group_arith import ceil_log2
from .instance import new_instance
from .kinds import (
    BRUTE,
    INTERVAL,
    MIN_CLASSICAL,
    MIN_QUERY,
    POW2,
    QUAD_GAP,
    SOLVERS,
    STRATEGIES,
    UNIFORM,
    UNIFORM_IMPROVED,
)
from .cost_model import DEFAULT_C, improved_width, render_report, table_report
from .cost_model import exponents as cost_exponents
from .pipeline import (
    CostLedger,
    Schedule,
    plan_interval,
    schedule_affine,
    schedule_from_json,
    schedule_increasing,
    schedule_single,
    schedule_uniform,
)
from .recover import recover_odd, recover_pow2
from .phase_sim import statevector_combine_dist, statevector_generate
from .seeds import derive
from .subset_sum import (
    IntervalInstance,
    ModularInstance,
    random_instance,
    solve,
    solve_bruteforce,
)
from .subset_sum.instances import modular_ancilla

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


# ---------------------------------------------------------------------------
# config file support


def read_config(path: str) -> dict[str, str]:
    """key=value lines; blank lines and # comments ignored."""
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, val = line.split("=", 1)
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def apply_config(
    parser: argparse.ArgumentParser,
    subparser: argparse.ArgumentParser,
    cfg: dict[str, str],
) -> None:
    """Install config values as parser defaults so explicit flags win.

    set_defaults replaces the owning action's default in place, so a value
    from the config behaves exactly like a changed built-in default: an
    explicit flag on the command line still overrides it.
    """
    owners: dict[str, tuple[argparse.ArgumentParser, argparse.Action]] = {}
    for p in (parser, subparser):
        for action in p._actions:
            owners.setdefault(action.dest, (p, action))
    unknown = set(cfg) - set(owners) - {"command", "config"}
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for dest, raw in cfg.items():
        p, action = owners[dest]
        if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
            value: object = raw.lower() in ("1", "true", "yes", "on")
        elif action.type is not None:
            try:
                value = action.type(raw)
            except ValueError as exc:
                raise UsageError(f"config key {dest}: bad value {raw!r}") from exc
        else:
            value = raw
        if action.choices is not None and value not in action.choices:
            raise UsageError(
                f"config key {dest}: {value!r} not in {sorted(action.choices)}"
            )
        p.set_defaults(**{dest: value})


# ---------------------------------------------------------------------------
# output plumbing


def _dump_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def emit(lines: list[dict], fmt: str, out: TextIO | None) -> None:
    if fmt == "jsonl":
        text = "".join(_dump_line(line) + "\n" for line in lines)
    elif fmt == "csv":
        if not lines:
            text = ""
        else:
            # a failed run's line adds an error column
            fields = sorted(set().union(*lines))
            buf = io.StringIO()
            writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
            writer.writeheader()
            for line in lines:
                row = {
                    k: _dump_line(v) if isinstance(v, (dict, list)) else v
                    for k, v in line.items()
                }
                writer.writerow(row)
            text = buf.getvalue()
    else:
        raise UsageError(f"unknown format {fmt!r}")
    _write(text, out)


def _output(path: str | None):
    """The output of a command, as a context manager: the file at path,
    opened for writing at once, or None (stdout) without a path. Commands
    open it before their first run, so a path that cannot be opened is a
    usage error that costs no run."""
    if not path:
        return contextlib.nullcontext()
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _write(text: str, out: TextIO | None) -> None:
    """Write text to the open file out (_output), or to stdout when out is
    None; a file that cannot be written is a usage error."""
    if out is None:
        sys.stdout.write(text)
        return
    try:
        out.write(text)
        out.flush()
    except OSError as exc:
        raise UsageError(f"cannot write {out.name}: {exc}") from exc


# ---------------------------------------------------------------------------
# solve


def _resolve_modulus(args) -> tuple[int, int, bool]:
    """(N, n_bits, odd) from --N/--n/--odd with conflict checks."""
    if (args.N is None) == (args.n is None):
        raise UsageError("give exactly one of --N or --n")
    if args.N is not None:
        N = args.N
        if N < 2:
            raise UsageError(f"need N >= 2, got {N}")
        is_pow2 = N & (N - 1) == 0
        if args.odd:
            if N % 2 == 0:
                raise UsageError(f"--odd conflicts with even N = {N}")
        elif not is_pow2:
            raise UsageError(f"N = {N} is neither a power of two nor flagged --odd")
        return N, ceil_log2(N), bool(args.odd)
    if args.odd:
        raise UsageError("--odd needs an explicit --N")
    if args.n < 1:
        raise UsageError(f"need n >= 1, got {args.n}")
    return 1 << args.n, args.n, False


def build_schedule(strategy: str, n: int, odd: bool, args) -> Schedule:
    routine = INTERVAL if odd else POW2
    c = args.c if args.c is not None else DEFAULT_C[args.solver]
    if strategy == UNIFORM:
        if args.k is None:
            raise UsageError("--strategy uniform needs --k")
        return schedule_uniform(n, args.k, routine, args.solver)
    if strategy == UNIFORM_IMPROVED:
        k = args.k if args.k is not None else improved_width(n, c)
        return schedule_uniform(n, k, routine, args.solver)
    if strategy == MIN_CLASSICAL:
        return schedule_increasing(n, c, routine, args.solver)
    if strategy == QUAD_GAP:
        return schedule_affine(n, c, args.beta, routine, args.solver)
    if strategy == MIN_QUERY:
        return schedule_single(n, routine, args.solver)
    raise UsageError(f"unknown strategy {strategy!r}")


def _solve_one(payload: dict) -> dict:
    """One recovery run; module-level and dict-driven so worker pools can
    ship it across processes. A run that raises any Exception gives a
    failed line (s_found null, verified false) whose error field names it,
    so the rest of its batch still runs; a line that succeeds has no error
    field. An exception outside ShiftLabError also prints its traceback to
    stderr."""
    N = payload["N"]
    odd = payload["odd"]
    run_seed = payload["run_seed"]
    sched = schedule_from_json(payload["schedule"])
    inst = new_instance(N, seed=run_seed)
    rng = random.Random(derive(run_seed, 1))
    ledger = CostLedger()
    s_found: int | None = None
    verified = False
    error: str | None = None
    try:
        if odd:
            s_found = recover_odd(inst, sched, rng=rng, ledger=ledger)
        else:
            s_found = recover_pow2(inst, sched, rng=rng, ledger=ledger)
        verified = True
    except Exception as exc:  # any failure: one run must not end the batch
        if not isinstance(exc, ShiftLabError):
            traceback.print_exc()  # a bug, not a refused or exhausted run
        error = f"{type(exc).__name__}: {exc}"
    line = {
        "seed": run_seed,
        "N": N,
        "s_found": s_found,
        "verified": verified,
        "q_queries": ledger.q_queries,
        "c_queries": ledger.c_queries,
        "solver_ops": ledger.solver_ops,
        "mem_peak": ledger.mem_peak_cells,
        "wall_s": round(ledger.wall_seconds, 6) if payload["timings"] else None,
        "schedule": payload["schedule"],
    }
    if error is not None:
        line["error"] = error
    return line


def cmd_solve(args) -> int:
    if args.runs < 1:
        raise UsageError(f"need --runs >= 1, got {args.runs}")
    if args.workers < 1:
        raise UsageError(f"need --workers >= 1, got {args.workers}")
    N, n, odd = _resolve_modulus(args)
    sched = build_schedule(args.strategy, n, odd, args)
    if odd:
        plan_interval(sched, N)  # refuses, before any run, sums past int64
    payloads = [
        {
            "N": N,
            "odd": odd,
            "run_seed": derive(args.seed, idx),
            "schedule": sched.to_json_dict(),
            "timings": args.timings,
        }
        for idx in range(args.runs)
    ]
    with _output(args.out) as out:
        if args.workers > 1:
            with ProcessPoolExecutor(max_workers=args.workers) as pool:
                lines = list(pool.map(_solve_one, payloads))
        else:
            lines = [_solve_one(p) for p in payloads]
        emit(lines, args.format, out)
    return EXIT_OK if all(line["verified"] for line in lines) else EXIT_FAIL


# ---------------------------------------------------------------------------
# subset-sum


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from exc


def _fit_slope(xs: list[float], ys: list[float]) -> float:
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


def cmd_subset_sum(args) -> int:
    ks = _parse_int_list(args.k)
    if not ks or min(ks) < 2:
        raise UsageError(f"--k needs widths >= 2, got {args.k!r}")
    if len(set(ks)) != len(ks):
        raise UsageError(f"--k repeats a width: {args.k!r}")
    if args.r is not None and args.r < 1:
        raise UsageError(f"need --r >= 1, got {args.r}")
    if args.instances < 1:
        raise UsageError(f"need --instances >= 1, got {args.instances}")
    with _output(args.out) as out:
        flavor = "modular" if args.flavor == "mod" else "interval"
        rng = random.Random(args.seed)
        mismatches = 0
        lines: list[dict] = []
        for k in ks:
            r = args.r if args.r is not None else k - 1
            ops: list[int] = []
            mem_max = 0
            missed = 0
            for i in range(args.instances):
                inst = random_instance(flavor, k, min(r, k - 1), rng)
                seed_i = derive(args.seed, k, i)
                res = solve(inst, args.solver, seed=seed_i)
                ops.append(res.op_count)
                mem_max = max(mem_max, res.mem_peak)
                if args.check:
                    oracle = solve_bruteforce(inst)
                    if set(res.solutions) != set(oracle.solutions):
                        missed += 1
            mismatches += missed
            ops.sort()
            lines.append(
                {
                    "k": k,
                    "r": min(r, k - 1),
                    "flavor": flavor,
                    "solver": args.solver,
                    "instances": args.instances,
                    "median_ops": ops[len(ops) // 2],
                    "mean_ops": round(sum(ops) / len(ops), 1),
                    "mem_peak_max": mem_max,
                    "mismatches": missed if args.check else None,
                }
            )
        slope = None
        if len(ks) >= 2:
            slope = _fit_slope([float(k) for k in ks], [math.log2(l["median_ops"]) for l in lines])
            for line in lines:
                line["log2_ops_per_k"] = round(slope, 4)
        emit(lines, args.format, out)
    if args.check:
        status = "ok" if mismatches == 0 else "MISMATCH"
        print(f"# oracle check: {mismatches} mismatches ({status})", file=sys.stderr)
    if slope is not None:
        print(f"# log2(median_ops) slope vs k: {slope:.4f}", file=sys.stderr)
    return EXIT_FAIL if mismatches else EXIT_OK


# ---------------------------------------------------------------------------
# validate


def cmd_validate(args) -> int:
    if args.max_n < 1:
        raise UsageError(f"need --max-n >= 1, got {args.max_n}")
    if args.max_k < 2:
        raise UsageError(f"need --max-k >= 2, got {args.max_k}")
    if args.trials < 1:
        raise UsageError(f"need --trials >= 1, got {args.trials}")
    if args.max_n > 10:
        raise GuardError(f"statevector suite capped at n = 10, got {args.max_n}")
    if args.max_k > 12:
        raise GuardError(f"combination enumeration capped at k = 12, got {args.max_k}")
    rng = random.Random(args.seed)

    max_label_dev = 0.0
    max_phase_dev = 0.0
    moduli = [1 << n for n in range(1, args.max_n + 1)]
    moduli += [3, 5, 15, 63, (1 << args.max_n) - 1]
    for N in sorted(set(m for m in moduli if m >= 2)):
        inst = new_instance(N, seed=rng.randrange(2**32))
        report = statevector_generate(inst)
        max_label_dev = max(max_label_dev, report.max_label_dev)
        max_phase_dev = max(max_phase_dev, report.max_phase_dev)

    max_tv = 0.0
    preimage_mismatch = 0
    trials = args.trials
    for _ in range(trials):
        k = rng.randrange(2, args.max_k + 1)
        routine = rng.choice((POW2, INTERVAL))
        if routine == POW2:
            r = rng.randrange(1, k)
            labels = tuple(rng.randrange(1 << k) for _ in range(k))
            dist = statevector_combine_dist(labels, r, POW2)
            residues = tuple(modular_ancilla(l, r) for l in labels)
            problems = {v: ModularInstance(residues, r, v) for v in dist.probs}
        else:
            r_max = k - ceil_log2(k)
            if r_max < 1:
                continue
            r = rng.randrange(1, r_max + 1)
            B = rng.randrange(4, max(5, 1 << min(k, 8)))
            labels = tuple(rng.randrange(B) for _ in range(k))
            dist = statevector_combine_dist(labels, r, INTERVAL, B)
            problems = {v: IntervalInstance(labels, B, r, v) for v in dist.probs}
        tv = 0.0
        for v, prob in dist.probs.items():
            res = solve(problems[v])
            if set(res.solutions) != set(dist.preimages[v]):
                preimage_mismatch += 1
            tv += abs(len(res.solutions) / (1 << k) - float(prob))
        max_tv = max(max_tv, tv / 2)

    print(f"statevector label uniformity: max |P(l) - 1/N| = {max_label_dev:.3e}")
    print(f"statevector phase deviation:  max = {max_phase_dev:.3e}")
    print(f"combination (V, J) TV distance: max = {max_tv:.3e} over {trials} trials")
    print(f"preimage set mismatches: {preimage_mismatch}")
    ok = (
        max_label_dev < 1e-9
        and max_phase_dev < 1e-9
        and max_tv < 1e-12
        and preimage_mismatch == 0
    )
    print("validate:", "PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# schedule


def cmd_schedule(args) -> int:
    if args.load:
        # GuardError is a ValueError: keep schedule_from_json out of the read
        # handler, so a schedule that loads but breaks a guard still exits 3
        try:
            with open(args.load, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read schedule file {args.load}: {exc}") from exc
        try:
            sched = schedule_from_json(doc)
        except (KeyError, TypeError) as exc:
            raise UsageError(f"malformed schedule file {args.load}: {exc!r}") from exc
    else:
        if args.n is None:
            raise UsageError("schedule needs --n (or --load FILE)")
        sched = build_schedule(args.strategy, args.n, args.routine == "interval", args)
    print(sched.describe())
    if args.json:
        print(_dump_line(sched.to_json_dict()))
    return EXIT_OK


# ---------------------------------------------------------------------------
# exponents


def cmd_exponents(args) -> int:
    if args.c is not None:
        strategies = (UNIFORM_IMPROVED, MIN_CLASSICAL, QUAD_GAP, MIN_QUERY)
        lines = [cost_exponents(args.c, s).as_dict() for s in strategies]
    else:
        lines = [
            {"table": r.table, "solver": r.solver, **r.point.as_dict()}
            for r in table_report()
        ]
    for line in lines:
        for key in ("query_exp", "time_exp"):
            if line[key] is not None:
                line[key] = round(line[key], 3)
    with _output(args.out) as out:
        if args.format == "text" and args.c is None:
            _write(render_report() + "\n", out)
        else:  # the text of custom-c lines is their JSONL
            emit(lines, "jsonl" if args.format == "text" else args.format, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_common_out(sp) -> None:
    sp.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    sp.add_argument("--format", type=str, choices=("jsonl", "csv"), default="jsonl")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftlab", description="hidden-shift simulation laboratory"
    )
    parser.add_argument("--config", type=str, default=None, help="key=value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)
    registry: dict[str, argparse.ArgumentParser] = {}
    parser.subcommand_parsers = registry  # type: ignore[attr-defined]

    sp = registry["solve"] = sub.add_parser("solve", help="end-to-end shift recovery runs")
    sp.add_argument("--N", type=int, default=None, help="group order")
    sp.add_argument("--n", type=int, default=None, help="bits; N = 2^n")
    sp.add_argument("--odd", action="store_true", help="treat N as odd (interval pipeline)")
    sp.add_argument("--strategy", choices=STRATEGIES, default=UNIFORM)
    sp.add_argument("--k", type=int, default=None, help="stage width (uniform/improved)")
    sp.add_argument("--c", type=float, default=None, help="solver exponent for schedules")
    sp.add_argument("--beta", type=float, default=None, help="affine offset (quadgap)")
    sp.add_argument("--solver", choices=SOLVERS, default=BRUTE)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--runs", type=int, default=1)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--timings", action="store_true", help="emit wall_s (breaks byte-identity)")
    _add_common_out(sp)
    sp.set_defaults(func=cmd_solve)

    sp = registry["subset-sum"] = sub.add_parser(
        "subset-sum", help="solver benchmarks and oracle checks"
    )
    sp.add_argument("--k", type=str, default="16", help="width or comma list, e.g. 16,20,24")
    sp.add_argument("--r", type=int, default=None, help="modulus/quantization bits (default k-1)")
    sp.add_argument("--flavor", choices=("mod", "interval"), default="mod")
    sp.add_argument("--solver", choices=SOLVERS, default=BRUTE)
    sp.add_argument("--instances", type=int, default=50)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument(
        "--check",
        action="store_true",
        help="compare each set with brute force's, from the one join brute, mitm and ss "
        "share: independent for rep and memless only (tests' oracles and validate check it)",
    )
    _add_common_out(sp)
    sp.set_defaults(func=cmd_subset_sum)

    sp = registry["validate"] = sub.add_parser(
        "validate", help="statevector equivalence suites"
    )
    sp.add_argument("--max-n", type=int, default=8)
    sp.add_argument("--max-k", type=int, default=10)
    sp.add_argument("--trials", type=int, default=40)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_validate)

    sp = registry["schedule"] = sub.add_parser(
        "schedule", help="build and validate schedules"
    )
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--strategy", choices=STRATEGIES, default=UNIFORM)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--c", type=float, default=None)
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--routine", choices=("pow2", "interval"), default="pow2")
    sp.add_argument("--solver", choices=SOLVERS, default=BRUTE)
    sp.add_argument("--json", action="store_true", help="also print the JSON form")
    sp.add_argument("--load", type=str, default=None, help="validate a schedule JSON file")
    sp.set_defaults(func=cmd_schedule)

    sp = registry["exponents"] = sub.add_parser(
        "exponents", help="closed-form cost tables"
    )
    sp.add_argument("--c", type=float, default=None, help="custom solver exponent")
    sp.add_argument("--format", type=str, choices=("text", "jsonl", "csv"), default="text")
    sp.add_argument("--out", type=str, default=None)
    sp.set_defaults(func=cmd_exponents)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            cfg = read_config(args.config)
            subparser = parser.subcommand_parsers[args.command]  # type: ignore[attr-defined]
            apply_config(parser, subparser, cfg)
            args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GuardError as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ShiftLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
