"""Smoke check of the benchmark runner at the smallest size.

Run from the repository root:

    python3 benchmarks/smoke.py

For every workload it runs ``run.py --size smoke`` for one second, untraced
and traced, and checks that the last line is the result object with
exactly the keys ``correct``, ``attempted``, ``failed`` and ``metrics``, that
the run is correct, and that the metrics are exactly BENCHMARK.json's
end-to-end (untraced) or per-layer (traced) names with their units.  It
then checks that the runner exits nonzero without printing a result in a
directory that holds only BENCHMARK.json and the benchmark's own files.
Exits nonzero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:]]
    cmd += ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    if cwd == ROOT:
        cmd += ["--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def _check_result(workload: str, trace: int) -> None:
    proc = _run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        sys.exit(f"{where}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        sys.exit(f"{where}: not a correct run: {result}")
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        sys.exit(f"{where}: metrics {got} != {expected}")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            sys.exit(f"{where}: malformed metric {name}: {m}")
    print(f"ok  {where}: {result['attempted']} operations")


def _check_bare() -> None:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        sys.exit(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok  bare directory: exit {proc.returncode}")


def main() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            _check_result(workload, trace)
    _check_bare()


if __name__ == "__main__":
    main()
