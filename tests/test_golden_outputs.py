"""Pinned CLI outputs: refactors must keep `shiftlab` byte-identical.

Each case runs `python -m shiftlab.cli` against this checkout's src/ and
compares the sha256 of its stdout with a digest recorded before the
combination core, the subset-sum formulas and the recovery loop were
folded together (CPython 3.11.7, numpy 2.4.6). A digest may change only in
a change whose stated purpose is to change that output; such a change
re-records it here and in docs/recorded_constants.md.

Run as a script (`python tests/test_golden_outputs.py`) to print
`args digest` for every case against this checkout's src/; that is how a
new case is recorded before the code it pins changes.
"""

import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

GOLDEN = [
    ("solve --N 65536 --k 8 --runs 20 --seed 1",
     "f5753e6163bb8f7bd1f7da4393b2769153afe803fcb8fbb679edbe1e4088cfce"),
    ("solve --n 14 --strategy minquery --runs 10 --seed 1",
     "fd062339bd2e668ee4cd21e107cf367d2deeac64fb255c46eab07dd35cc16070"),
    ("solve --N 1009 --odd --k 6 --runs 4 --seed 1",
     "c0101b99f6bce61a7ffda5e4ca50f2ad0f55c1a2da6bced0af24f4ad261a7d76"),
    ("solve --N 1009 --odd --k 8 --solver ss --runs 3 --seed 2",
     "d68ae8a9a86aae167ccafc6eca053837dad18fe27e8ca895eefa6d76aead4b84"),
    # k = 12 runs subset_sums' split-and-join path inside the interval
    # pipeline; recorded before subset_sums moved to selection-matrix products
    ("solve --N 100003 --odd --k 12 --runs 2 --seed 1",
     "35d179078d537b8557abf48df860b3b10f91d8f32ba496f7adbcda4408689ba3"),
    ("solve --N 4096 --strategy minclass --solver ss --runs 4 --seed 1",
     "c97ce34d38e2280edf028852b46bf3fd68f89b00bbdd44a3b83d4fa52734edbe"),
    ("solve --N 4096 --strategy quadgap --solver mitm --runs 4 --seed 1",
     "2577596f950634cbb83ae31d87775112f51c325219ff339ece9464bd96a2c19c"),
    ("solve --N 1024 --k 10 --solver memless --runs 2 --seed 1",
     "dc75db440f50b3247022cfebf002ba91326b6ecbafb628bd45e0a134ce68fd2f"),
    ("schedule --n 16 --strategy uniform --k 5 --json",
     "506abb37dda1c41cfb15947088cf1aa18b54046f3f190ff201fdf7355321a954"),
    ("exponents --format jsonl",
     "5385d935c725e113b0157f79919391cc9a1e6d08467ae76c204bac68cc1a5bd7"),
    # the solver layer alone: rep's ternary joins over cached profile lists,
    # ss at k = 24 with interval bounds, and brute force past one 2^18 chunk
    ("subset-sum --k 16,20 --solver rep --instances 3 --check --seed 1",
     "9daf326466e4a1205c3df7300930911860f12ad314ebe45db028dfc7e5801a2a"),
    ("subset-sum --k 16,20,24 --solver ss --flavor interval --instances 4 --check --seed 1",
     "72bbb275d9fa6ea8ba148771a2313a81a55d20d950e00afa3b75640d156dc6b9"),
    ("subset-sum --k 18,21 --solver brute --instances 3 --seed 1",
     "39491b02eb21d0e11593378b2b2a5d917ad91494038a3915a0e2f31b3e057bc1"),
    ("subset-sum --k 18,21 --solver brute --flavor interval --instances 3 --seed 1",
     "a4c97587bb500afece57b19626753b7953437facccbe1d27bf412d445a23353c"),
    # recorded before the pipeline moved to int labels: brute force past one
    # 2^18 chunk inside a pipeline (k = 20), and rep's per-invocation seeds
    ("solve --n 19 --strategy minquery --runs 1 --seed 1",
     "4e1d5af3fc36f0735bf2e1849862acc972a67cf42d4dce1eda07efbff6679914"),
    ("solve --N 1024 --k 8 --solver rep --runs 2 --seed 1",
     "79c974db0c6412db20a7e101efe29cde40d3731246cdfe73e9ff360d5bdd1a5a"),
    # memless on the solver layer alone, both flavors; recorded before its
    # walk space moved to subset_sums tables
    ("subset-sum --k 13,17 --solver memless --instances 2 --seed 1",
     "aa6045460dad461b1a1e0171b52e89a92e7d011bcb2400d3ea4e2b406fede3be"),
    ("subset-sum --k 13,17 --solver memless --flavor interval --instances 2 --seed 1",
     "78b18cdd903a1d3dc110645cb8fcbe059b232a5e08df25f4d83d5674c3c0a02d"),
    # stage-0 waves of full label sums on both sides of the int32 bound:
    # at N = 2^28 the largest sum is 2^31 - 8, at 2^29 the rows are int64;
    # recorded before power-of-two waves moved from low-bit sums to full sums
    ("solve --N 268435456 --k 8 --runs 1 --seed 3",
     "0c1f194bf93a6a11061ddd36e81770617c5e41c75518bfc347e4cf772b823efa"),
    ("solve --N 536870912 --k 8 --runs 1 --seed 3",
     "ce154d0d2ca4556634aefd94078833561d15248a6d02e0ad52bc58f910368788"),
]


def cli_digest(args: str) -> str:
    """sha256 of `shiftlab <args>`'s stdout, run against this checkout's src/."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, "-m", "shiftlab.cli", *args.split()],
        capture_output=True,
        timeout=240,
        cwd=ROOT,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return hashlib.sha256(proc.stdout).hexdigest()


@pytest.mark.parametrize("args,digest", GOLDEN, ids=[a for a, _ in GOLDEN])
def test_cli_stdout_digest(args, digest):
    assert cli_digest(args) == digest


if __name__ == "__main__":
    for args, _ in GOLDEN:
        print(args, cli_digest(args))
