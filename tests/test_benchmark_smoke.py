"""The benchmark runner still works against the package.

``benchmarks/smoke.py`` runs every workload at its smallest size, untraced
and traced, and checks the result line and every end-to-end and per-layer
metric name.  The traced run hooks package functions by name, so renaming
one of them makes a per-layer metric absent and fails this test.  The
hook targets are also resolved directly, which names a dropped one in
well under a second.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing(monkeypatch):
    """``benchmarks/tracing.py`` as a module, without writing its bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = ROOT / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_hook_resolves(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    missing = [
        f"{span} ({module}.{path})"
        for span, module, path in tracing.HOOKS
        if tracing._resolve(importlib.import_module(f"edgebandit.{module}"), path) is None
    ]
    assert not missing, f"benchmark trace hooks without a target: {missing}"


def test_benchmark_smoke():
    proc = subprocess.run(
        [sys.executable, "benchmarks/smoke.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
