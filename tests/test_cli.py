"""The command-line harness: output contracts, determinism, exit codes."""

import csv
import functools
import io
import json
import multiprocessing
import os
import subprocess
import sys

import jsonschema
import pytest

import shiftlab.cli as cli_module
from shiftlab import AccountingError, schedule_from_json, schedule_uniform

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA_PATH = os.path.join(ROOT, "docs", "schemas", "solve_line.schema.json")

with open(SCHEMA_PATH, "r", encoding="utf-8") as fh:
    SOLVE_SCHEMA = json.load(fh)


def cli(*args: str, timeout: int = 240) -> subprocess.CompletedProcess:
    """`shiftlab <args>`, run against this checkout's src/."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, "-m", "shiftlab.cli", *args],
        capture_output=True,
        timeout=timeout,
        cwd=ROOT,
        env=env,
    )


def lines_of(proc: subprocess.CompletedProcess) -> list[dict]:
    return [json.loads(line) for line in proc.stdout.decode().splitlines()]


# ---------------------------------------------------------------------------
# solve


def test_solve_emits_schema_valid_lines():
    proc = cli("solve", "--n", "10", "--strategy", "uniform", "--k", "5",
               "--runs", "3", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    rows = lines_of(proc)
    assert len(rows) == 3
    for row in rows:
        jsonschema.validate(row, SOLVE_SCHEMA)
        assert row["verified"] is True
        assert row["N"] == 1024
        assert row["wall_s"] is None
        assert all(st["k"] == 5 and st["r"] == 4 for st in row["schedule"]["stages"])
    assert len({row["seed"] for row in rows}) == 3


def test_solve_byte_identical_reruns_and_worker_counts():
    args = ("solve", "--n", "10", "--strategy", "uniform", "--k", "5",
            "--runs", "4", "--seed", "2")
    a = cli(*args)
    b = cli(*args)
    c = cli(*args, "--workers", "3")
    assert a.returncode == b.returncode == c.returncode == 0
    assert a.stdout == b.stdout == c.stdout
    assert a.stdout.count(b"\n") == 4


def test_solve_timings_opt_in():
    proc = cli("solve", "--n", "8", "--strategy", "uniform", "--k", "4",
               "--runs", "2", "--seed", "5", "--timings")
    rows = lines_of(proc)
    for row in rows:
        jsonschema.validate(row, SOLVE_SCHEMA)
        assert isinstance(row["wall_s"], float) and row["wall_s"] >= 0


def test_solve_odd_minquery():
    proc = cli("solve", "--N", "15", "--odd", "--strategy", "minquery",
               "--solver", "ss", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    rows = lines_of(proc)
    assert len(rows) == 1
    jsonschema.validate(rows[0], SOLVE_SCHEMA)
    assert rows[0]["verified"] is True
    assert rows[0]["schedule"]["solver"] == "ss"
    assert rows[0]["schedule"]["stages"][0]["routine"] == "interval"


def test_solve_csv_format():
    proc = cli("solve", "--n", "8", "--strategy", "uniform", "--k", "4",
               "--runs", "2", "--seed", "7", "--format", "csv")
    assert proc.returncode == 0
    rows = list(csv.DictReader(io.StringIO(proc.stdout.decode())))
    assert len(rows) == 2
    assert rows[0]["verified"] == "True"
    # nested dicts are serialized as JSON inside the cell
    assert json.loads(rows[0]["schedule"])["stages"][0]["k"] == 4


def test_solve_out_file_matches_stdout(tmp_path):
    out = tmp_path / "runs.jsonl"
    args = ("solve", "--n", "8", "--strategy", "uniform", "--k", "4",
            "--runs", "2", "--seed", "9")
    direct = cli(*args)
    to_file = cli(*args, "--out", str(out))
    assert to_file.stdout == b""
    assert out.read_bytes() == direct.stdout


@pytest.mark.parametrize("command,patched", [
    (["solve", "--n", "8", "--k", "4", "--runs", "3"], "_solve_one"),
    (["subset-sum", "--k", "8,10", "--instances", "2"], "solve"),
])
@pytest.mark.parametrize("out", ["no-such-dir/x.jsonl", "."])
def test_unwritable_out_is_refused_before_any_run(monkeypatch, capsys, tmp_path, command,
                                                  patched, out):
    # the --out file is opened after the argument checks and before the
    # first run: a path that cannot be opened exits 2 and starts no run
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli_module, patched, no_run)
    monkeypatch.chdir(tmp_path)
    assert cli_module.main([*command, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: cannot write {out}: "), err


def test_solve_batch_survives_a_run_that_raises(monkeypatch, capsys):
    # the second of three runs raises, a shiftlab error (an accounting
    # check) or any other exception: it prints a failed line naming the
    # error, the other two print what an unbroken batch prints, the exit
    # code is 1, and under --workers 2 (forked workers inherit the patch)
    # the bytes are the same
    args = ["solve", "--n", "8", "--strategy", "uniform", "--k", "4",
            "--runs", "3", "--seed", "9"]
    assert cli_module.main(args) == 0
    clean = capsys.readouterr().out.splitlines()
    bad_seed = json.loads(clean[1])["seed"]
    real = cli_module.recover_pow2
    fork = multiprocessing.get_context("fork")
    monkeypatch.setattr(cli_module, "ProcessPoolExecutor",
                        functools.partial(cli_module.ProcessPoolExecutor, mp_context=fork))
    for exc, error in (
        (AccountingError("stage-0 labels drawn out of step with wave row 0"),
         "AccountingError: stage-0 labels drawn out of step with wave row 0"),
        (RuntimeError("boom"), "RuntimeError: boom"),
    ):
        def recover(inst, *a, exc=exc, **kw):
            if inst.seed == bad_seed:
                raise exc
            return real(inst, *a, **kw)

        monkeypatch.setattr(cli_module, "recover_pow2", recover)
        outputs = []
        for workers in ("1", "2"):
            assert cli_module.main(args + ["--workers", workers]) == 1
            out, err = capsys.readouterr()
            outputs.append(out)
            if workers == "1":
                # only an exception outside ShiftLabError prints its traceback
                assert ("Traceback" in err) == (type(exc) is RuntimeError)
        assert outputs[0] == outputs[1]
        got = outputs[0].splitlines()
        assert len(got) == 3
        assert (got[0], got[2]) == (clean[0], clean[2])
        failed = json.loads(got[1])
        jsonschema.validate(failed, SOLVE_SCHEMA)
        assert (failed["seed"], failed["s_found"], failed["verified"], failed["error"]) == (
            bad_seed, None, False, error)
        assert "error" not in json.loads(got[0])


def test_solve_csv_failed_line_adds_error_column(monkeypatch, capsys):
    # a failed run's error becomes a column, empty on the lines that succeed
    real = cli_module.recover_pow2
    calls = []

    def recover(*a, **kw):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("boom")
        return real(*a, **kw)

    monkeypatch.setattr(cli_module, "recover_pow2", recover)
    args = ["solve", "--n", "8", "--strategy", "uniform", "--k", "4",
            "--runs", "2", "--seed", "9", "--format", "csv"]
    assert cli_module.main(args) == 1
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [(row["verified"], row["error"]) for row in rows] == [
        ("False", "RuntimeError: boom"), ("True", "")]


def test_solve_strategies_build_their_schedules():
    proc = cli("solve", "--n", "12", "--strategy", "minclass", "--seed", "1")
    row = lines_of(proc)[0]
    assert row["verified"] is True
    ks = [st["k"] for st in row["schedule"]["stages"]]
    assert ks == sorted(ks) and len(ks) >= 2


# ---------------------------------------------------------------------------
# exit codes


def with_files(args, tmp_path) -> list[str]:
    """args with each 1-tuple (text,) replaced by the path of a file that
    holds text."""
    argv = []
    for i, arg in enumerate(args):
        if isinstance(arg, tuple):
            path = tmp_path / f"arg{i}"
            path.write_text(arg[0], encoding="utf-8")
            arg = str(path)
        argv.append(arg)
    return argv


@pytest.mark.parametrize(
    "args",
    [
        ("solve", "--N", "100"),                       # neither pow2 nor --odd
        ("solve", "--N", "16", "--n", "4"),            # both given
        ("solve",),                                    # neither given
        ("solve", "--N", "16", "--odd"),               # --odd on even N
        ("solve", "--odd"),                            # --odd without --N
        ("solve", "--n", "8", "--strategy", "uniform"),  # uniform needs --k
        ("schedule",),                                 # needs --n or --load
        ("solve", "--n", "-1"),
        ("solve", "--N", "16", "--k", "4", "--runs", "0"),
        ("solve", "--N", "16", "--k", "4", "--runs", "-1"),
        ("subset-sum", "--k", "0"),
        ("subset-sum", "--k", "1"),
        ("subset-sum", "--k", "8", "--r", "0"),
        ("subset-sum", "--k", "8", "--instances", "0"),
        ("subset-sum", "--k", "8,8", "--instances", "2"),  # no slope over one width
        ("validate", "--max-n", "0"),
        ("validate", "--max-n", "-1"),
        ("validate", "--max-k", "1"),
        ("validate", "--trials", "0"),
        ("schedule", "--load", "no-such-schedule.json"),
        ("schedule", "--load", ("stages: [k=4, r=3]",)),        # not JSON
        ("schedule", "--load", ('{"solver": "brute"}',)),        # no stages
        ("schedule", "--load", ('{"stages": [{"k": 4}]}',)),     # a stage without r
        ("schedule", "--load", ('[{"k": 4, "r": 3}]',)),         # not an object
        ("schedule", "--load", ('{"stages": [{"k": 4.5, "r": 2}]}',)),  # width not an int
        ("schedule", "--load", ('{"stages": [{"k": 4, "r": true}]}',)),  # r a bool
        ("--config", "no-such-config.cfg", "schedule", "--n", "8", "--k", "4"),
        ("solve", "--N", "16", "--k", "4", "--workers", "0"),
        ("solve", "--N", "16", "--k", "4", "--workers", "-2"),
        ("--config", ("workers = 0",), "solve", "--N", "16", "--k", "4"),
        # params not a JSON object
        ("schedule", "--load", ('{"stages": [{"k": 4, "r": 2}], "params": "ab"}',)),
        ("schedule", "--load", ('{"stages": [{"k": 4, "r": 2}], "params": [[1, 2, 3]]}',)),
        # an --out that cannot be written: no such directory, or a directory
        ("solve", "--n", "4", "--k", "2", "--out", "no-such-dir/x.jsonl"),
        ("solve", "--n", "4", "--k", "2", "--out", "."),
        ("subset-sum", "--k", "4", "--instances", "1", "--out", "no-such-dir/x.jsonl"),
        ("subset-sum", "--k", "4", "--instances", "1", "--out", "."),
        ("exponents", "--format", "jsonl", "--out", "no-such-dir/x.jsonl"),
        ("exponents", "--format", "csv", "--out", "."),
        ("exponents", "--out", "no-such-dir/x.txt"),
        ("exponents", "--c", "0.5", "--out", "."),
        # a config boolean that is neither true nor false
        ("--config", ("timings = ture",), "solve", "--n", "8", "--strategy", "uniform",
         "--k", "4"),
        ("--config", ("check = nope",), "subset-sum", "--k", "4", "--instances", "1"),
    ],
)
def test_usage_errors_exit_2(args, tmp_path):
    proc = cli(*with_files(args, tmp_path))
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"usage error: "), proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("validate", "--max-n", "11"),
        ("validate", "--max-k", "13"),
        ("subset-sum", "--k", "31", "--instances", "1"),
        ("schedule", "--n", "40", "--strategy", "minquery"),
        ("schedule", "--load", ('{"stages": []}',)),              # loads, breaks a guard
        ("schedule", "--n", "20", "--strategy", "improved", "--c", "0"),
        ("schedule", "--n", "20", "--strategy", "improved", "--c", "-1"),
        ("schedule", "--n", "20", "--strategy", "improved", "--c", "5"),
        # widths the schedule's solver refuses, refused before any run
        ("solve", "--n", "8", "--k", "4", "--solver", "rep"),    # rep needs k >= 8
        ("solve", "--n", "8", "--k", "3", "--solver", "ss"),     # ss needs k >= 4
        ("solve", "--n", "30", "--strategy", "minquery"),        # brute k = 31
        ("schedule", "--n", "30", "--strategy", "minquery"),
        # a beta that is not finite, or overflows the stage width
        ("schedule", "--n", "16", "--strategy", "quadgap", "--beta", "nan", "--solver", "mitm"),
        ("schedule", "--n", "16", "--strategy", "quadgap", "--beta", "inf", "--solver", "mitm"),
        ("schedule", "--n", "16", "--strategy", "quadgap", "--beta", "1e308", "--solver", "mitm"),
        ("solve", "--n", "8", "--strategy", "quadgap", "--beta", "nan"),
        # a c so small that the improved width overflows
        ("schedule", "--n", "16", "--strategy", "improved", "--c", "5e-324"),
        ("solve", "--n", "8", "--strategy", "improved", "--c", "1e-320"),
    ],
)
def test_guard_errors_exit_3(args, tmp_path):
    proc = cli(*with_files(args, tmp_path))
    assert proc.returncode == 3
    assert proc.stdout == b""


def test_solve_refuses_odd_n_past_int64_sums_before_any_run():
    # k = 12 labels below 2^61 - 1 can sum past the solvers' int64 bound
    proc = cli("solve", "--N", str(2**61 - 1), "--odd", "--k", "12", "--runs", "2")
    assert proc.returncode == 3
    assert proc.stdout == b""
    assert b"64-bit partial sums" in proc.stderr


def test_oracle_mismatch_exits_1():
    # the memoryless solver is exact only with high probability; this seeded
    # configuration is a recorded case where one instance's solution set
    # comes back incomplete, which --check must surface as exit code 1
    proc = cli("subset-sum", "--k", "16", "--solver", "memless",
               "--instances", "12", "--check", "--seed", "22")
    assert proc.returncode == 1
    assert b"MISMATCH" in proc.stderr
    row = lines_of(proc)[0]
    assert row["mismatches"] >= 1


def test_subset_sum_check_counts_mismatches_per_width():
    # the k = 16 draws are test_oracle_mismatch_exits_1's; the k = 12 draws
    # that follow come back exact, so each row carries its own count
    proc = cli("subset-sum", "--k", "16,12", "--solver", "memless",
               "--instances", "12", "--check", "--seed", "22")
    assert proc.returncode == 1
    assert [row["mismatches"] for row in lines_of(proc)] == [1, 0]
    assert b"# oracle check: 1 mismatches (MISMATCH)" in proc.stderr


# ---------------------------------------------------------------------------
# config files


def test_config_supplies_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("# defaults\nk = 4\nruns = 2\n")
    base = cli("--config", str(cfg), "solve", "--n", "8",
               "--strategy", "uniform", "--seed", "3")
    assert base.returncode == 0, base.stderr
    rows = lines_of(base)
    assert len(rows) == 2
    assert rows[0]["schedule"]["stages"][0]["k"] == 4

    override = cli("--config", str(cfg), "solve", "--n", "8",
                   "--strategy", "uniform", "--seed", "3", "--k", "5")
    assert lines_of(override)[0]["schedule"]["stages"][0]["k"] == 5


def test_config_boolean_and_unknown_key(tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("timings = true\n")
    proc = cli("--config", str(cfg), "solve", "--n", "8", "--strategy",
               "uniform", "--k", "4", "--seed", "1")
    assert lines_of(proc)[0]["wall_s"] is not None
    cfg.write_text("timings = OFF\n")
    proc = cli("--config", str(cfg), "solve", "--n", "8", "--strategy",
               "uniform", "--k", "4", "--seed", "1")
    assert proc.returncode == 0 and lines_of(proc)[0]["wall_s"] is None

    bad = tmp_path / "bad.cfg"
    bad.write_text("width = 9\n")
    assert cli("--config", str(bad), "solve", "--n", "8", "--strategy",
               "uniform", "--k", "4").returncode == 2


# ---------------------------------------------------------------------------
# subset-sum


def test_subset_sum_check_and_slope():
    proc = cli("subset-sum", "--k", "8,10", "--solver", "mitm",
               "--instances", "20", "--check", "--seed", "0")
    assert proc.returncode == 0
    assert b"0 mismatches (ok)" in proc.stderr
    assert b"slope" in proc.stderr
    rows = lines_of(proc)
    assert [row["k"] for row in rows] == [8, 10]
    assert all(row["mismatches"] == 0 for row in rows)
    assert all(row["log2_ops_per_k"] == rows[0]["log2_ops_per_k"] for row in rows)


def test_subset_sum_single_width_has_no_slope():
    proc = cli("subset-sum", "--k", "10", "--instances", "5", "--seed", "1")
    row = lines_of(proc)[0]
    assert "log2_ops_per_k" not in row
    assert row["median_ops"] > 0


# ---------------------------------------------------------------------------
# validate


def test_validate_passes():
    proc = cli("validate", "--max-n", "5", "--max-k", "8", "--trials", "10",
               "--seed", "1")
    assert proc.returncode == 0
    assert b"validate: PASS" in proc.stdout


# ---------------------------------------------------------------------------
# schedule


def test_schedule_build_print_and_json():
    proc = cli("schedule", "--n", "16", "--strategy", "uniform", "--k", "5",
               "--json")
    assert proc.returncode == 0
    text = proc.stdout.decode()
    assert "stage 0: k=5 r=4 pow2" in text
    doc = json.loads(text.splitlines()[-1])
    assert schedule_from_json(doc) == schedule_uniform(16, 5)


def test_schedule_load_roundtrip(tmp_path):
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(schedule_uniform(12, 6).to_json_dict()))
    proc = cli("schedule", "--load", str(path))
    assert proc.returncode == 0
    assert b"k=6 r=5 pow2" in proc.stdout


# ---------------------------------------------------------------------------
# exponents


def test_exponents_text_table():
    proc = cli("exponents")
    assert proc.returncode == 0
    text = proc.stdout.decode()
    assert "[hidden-shift]" in text and "[purely-quantum]" in text


def test_exponents_jsonl_and_csv():
    js = cli("exponents", "--format", "jsonl")
    rows = lines_of(js)
    assert len(rows) == 17
    assert {"query", "time", "memory"} <= set(rows[0])

    cs = cli("exponents", "--format", "csv")
    parsed = list(csv.DictReader(io.StringIO(cs.stdout.decode())))
    assert len(parsed) == 17


def test_exponents_custom_c():
    proc = cli("exponents", "--c", "0.5", "--format", "jsonl")
    rows = lines_of(proc)
    assert [row["strategy"] for row in rows] == [
        "improved", "minclass", "quadgap", "minquery"
    ]
    by = {row["strategy"]: row for row in rows}
    assert by["improved"]["query_exp"] == 0.5
    assert by["improved"]["time_exp"] == 1.0
    assert by["minquery"]["query_exp"] is None
    assert by["minquery"]["time"] == "2^(0.5n)"


def test_exponents_out_file(tmp_path):
    out = tmp_path / "table.csv"
    proc = cli("exponents", "--format", "csv", "--out", str(out))
    assert proc.returncode == 0 and proc.stdout == b""
    assert out.read_text().count("\n") == 18


@pytest.mark.parametrize("args", [(), ("--c", "0.5")], ids=["table", "custom-c"])
def test_exponents_text_out_file_matches_stdout(args, tmp_path):
    # the default text format writes to --out too, byte for byte what it
    # prints without one, and then prints nothing
    out = tmp_path / "report.txt"
    direct = cli("exponents", *args)
    to_file = cli("exponents", *args, "--out", str(out))
    assert direct.returncode == to_file.returncode == 0
    assert direct.stdout and to_file.stdout == b""
    assert out.read_bytes() == direct.stdout
