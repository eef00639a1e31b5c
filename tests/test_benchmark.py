"""The benchmark's own self-check, run as a test: one checked deck of every
workload against the benchmark's oracles."""

import subprocess
import sys

from tests.conftest import FIXDIR

ROOT = FIXDIR.parent


def test_benchmark_self_check_passes():
    # a kernel change that gives a wrong answer on any workload fails here
    done = subprocess.run([sys.executable, "tcxbench/check.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
