"""The benchmark's tracer self-test, run as part of the test suite.

perfbench/ wraps shiftlab's layer boundaries by name (pipeline's
combine_pow2/combine_interval, combine's solve, sample_element, ...). A
refactor that renames or bypasses one of them breaks the benchmark's
attribution; running its self-test here makes that a test failure.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        capture_output=True,
        timeout=600,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout.decode()[-2000:] + proc.stderr.decode()[-2000:]
    assert b"selftest passed" in proc.stdout
