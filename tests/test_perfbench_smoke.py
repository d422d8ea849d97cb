"""The benchmark harness still runs: every workload at tiny sizes, no timings."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sweep_small_g", "sweep_large_g", "concordance", "strata")


def test_perfbench_smoke():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name in WORKLOADS:
        assert re.search(rf"^smoke {name}: ok, .* 0 mismatches", proc.stdout, re.M), proc.stdout
