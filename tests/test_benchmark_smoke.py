"""The benchmark runner still works against the package.

``benchmarks/smoke.py`` runs every workload at its smallest size, untraced
and traced, and checks the result line and every end-to-end and per-layer
metric name.  The traced run hooks package functions by name, so renaming
one of them makes a per-layer metric absent and fails this test.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke():
    proc = subprocess.run(
        [sys.executable, "benchmarks/smoke.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
