"""Benchmark runner for edgebandit.

Run from the repository root:

    python3 benchmarks/run.py --workload fig6-bound --seed 0 --seconds 50 --trace 0

One named workload runs serially in this process.  Each episode seed of
the list derived from ``--seed`` runs one episode per cell, then the seed's
relaxed bound if the workload has one, then writes the seed's CSV.  Seeds
follow each other until the next one would likely end after ``--seconds``;
the first seed always runs.  Every output is checked.  The run prints a
metric table, a one-line JSON report with provenance and CSV digests, and,
as its last line, the result object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json, measured untraced.
With ``--trace 1`` every operation runs twice, untraced and then under
span tracing, and the metrics are BENCHMARK.json's per-layer metrics.
The exit status is nonzero when any output check fails.
Times are reported in reference seconds: each
wall time is scaled by a fixed probe's nominal time over the probe's time
right next to it, so the shared host's changing speed cancels out.
See benchmarks/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

import numpy as np
from tracing import Tracer, installed, layer_metrics
from workloads import WORKLOADS, build_cells, episode_seeds

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
# The probe is fixed benchmark-only work; PROBE_REF_S is its median time on
# the 2-vCPU x86 host the benchmark was defined on (Python 3.11, numpy 2.4).
PROBE_STEPS = 4000
PROBE_REF_S = 0.0175
# set-up is scaled by a fresh interpreter that imports what edgebandit imports
# from outside the package; SETUP_PROBE_REF_S is its median time on that host
SETUP_PROBE = "import numpy, scipy.special"
SETUP_PROBE_REF_S = 0.52
# p90 is reported only with at least ten samples beyond it
P90_MIN_SAMPLES = 100
SETUP_SNIPPET = (
    "import sys; sys.path[:0] = sys.argv[1:3]; "
    "from workloads import build_cells; build_cells(sys.argv[3], sys.argv[4])"
)


@dataclass
class Op:
    """One timed operation: an episode of a cell, or the seed's relaxed bound."""

    id: int
    kind: str  # episode | bound
    seed: int
    cell: object  # edgebandit.config.ExperimentCell
    seconds: float = math.nan
    probe_seconds: tuple[float, float] = (math.nan, math.nan)  # probes timed just before and after
    traced_seconds: float = math.nan
    value: object = None  # RunRecord for an episode, float for a bound
    problems: list[str] = field(default_factory=list)

    @property
    def label(self) -> str:
        return self.cell.config.policy_label() if self.kind == "episode" else "bound"

    @property
    def ref_seconds(self) -> float:
        """Wall time scaled to the host speed at which the probe takes PROBE_REF_S."""
        return self.seconds * PROBE_REF_S / statistics.fmean(self.probe_seconds)


def _probe() -> float:
    """Seconds for a fixed mix of pure-Python and small-numpy steps, like the program's.

    Timed before and after each operation, it tracks how fast the shared
    host runs at that moment; it touches nothing of edgebandit.
    """
    t0 = perf_counter()
    rng = np.random.default_rng(12345)
    counts: dict[int, int] = {}
    total = 0.0
    for i in range(PROBE_STEPS):
        total += float(rng.random(64).sum()) + (i * i) % 13
        counts[i % 97] = counts.get(i % 97, 0) + 1
    return perf_counter() - t0


def _parse(argv: Optional[list[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0, help="workload seed; episode seeds derive from it")
    p.add_argument("--seconds", type=float, default=50.0, help="measured time budget")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("paper", "smoke"), default="paper")
    return p.parse_args(argv)


def _time_setup(workload: str, size: str) -> list[tuple[float, float, float]]:
    """Set-up samples of fresh interpreters that import edgebandit and build the cells.

    Each sample is (wall seconds, reference seconds, probe seconds): the
    probe is the mean of the SETUP_PROBE interpreters run just before and after.
    """

    def wall(*args: str) -> float:
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", *args], check=True, timeout=120)
        return perf_counter() - t0

    samples = []
    before = wall(SETUP_PROBE)
    for _ in range(SETUP_REPEATS):
        seconds = wall(SETUP_SNIPPET, str(SRC), str(BENCH_DIR), workload, size)
        after = wall(SETUP_PROBE)
        probe = (before + after) / 2
        samples.append((seconds, seconds * SETUP_PROBE_REF_S / probe, probe))
        before = after
    return samples


def _provenance() -> dict:
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "edgebandit").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    try:
        # the ceiling keeps git from searching above the checkout
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _check_record(rec, cell, seed: int) -> list[str]:
    cfg = cell.config
    problems = []
    if not (math.isfinite(rec.discounted_reward) and math.isfinite(rec.energy_saving)):
        problems.append(f"non-finite reward or saving: {rec}")
    if not 0.0 <= rec.completion_ratio <= 1.0:
        problems.append(f"completion ratio {rec.completion_ratio} outside [0, 1]")
    expected = (cfg.policy_label(), cfg.num_users, cfg.num_servers, cfg.penalty_alpha, seed)
    got = (rec.policy, rec.num_users, rec.num_servers, rec.alpha, rec.seed)
    if got != expected:
        problems.append(f"record {got} does not match its cell {expected}")
    return problems


class Runner:
    """Runs, times and checks the operations of one workload run."""

    def __init__(self, harness, tracer: Optional[Tracer]):
        self.harness = harness
        self.tracer = tracer
        self.ops: list[Op] = []
        self._ids = itertools.count()
        self._last_probe: Optional[float] = None  # the probe right after the last untraced call
        self.csv_seconds: dict[int, float] = {}
        self.csv_ref_seconds: dict[int, float] = {}
        self.csv_traced_seconds: dict[int, float] = {}
        self.csv_sha256: dict[int, str] = {}

    def _call(self, op: Op):
        if op.kind == "episode":
            return self.harness.run_episode(op.cell.config, op.seed)
        return self.harness.compute_relaxed_bound(op.cell.config, op.seed)

    def run(self, kind: str, seed: int, cell) -> Op:
        op = Op(id=next(self._ids), kind=kind, seed=seed, cell=cell)
        self.ops.append(op)
        before = self._last_probe if self._last_probe is not None else _probe()
        self._last_probe = None
        try:
            t0 = perf_counter()
            op.value = self._call(op)
            op.seconds = perf_counter() - t0
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            op.problems.append(traceback.format_exc())
            return op
        self._last_probe = _probe()
        op.probe_seconds = (before, self._last_probe)
        if kind == "episode":
            op.problems += _check_record(op.value, cell, seed)
        elif not math.isfinite(op.value):
            op.problems.append(f"non-finite bound {op.value}")
        if self.tracer is not None:
            try:
                with installed(self.tracer), self.tracer.operation(op.id, f"op.{kind}"):
                    traced = self._call(op)
                op.traced_seconds = self.tracer.last_op_seconds
                self._last_probe = None  # no longer adjacent to the next operation
                if traced != op.value:
                    op.problems.append("traced output differs from the untraced output")
            except Exception:  # noqa: BLE001
                op.problems.append("traced run failed:\n" + traceback.format_exc())
        return op

    def write_csv(self, seed: int, seed_ops: list[Op], n_cells: int, path: Path) -> None:
        """Emit the seed's records as the CLI would and check the bytes."""
        episodes = [op for op in seed_ops if op.kind == "episode" and not op.problems]
        bounds = [op.value for op in seed_ops if op.kind == "bound" and not op.problems]
        records = [
            dataclasses.replace(op.value, relaxed_bound=bounds[0]) if bounds else op.value
            for op in episodes
        ]
        problems = []
        try:
            t0 = perf_counter()
            self.harness.emit_csv(records, path)
            self.csv_seconds[seed] = perf_counter() - t0
            self._last_probe = _probe()
            self.csv_ref_seconds[seed] = self.csv_seconds[seed] * PROBE_REF_S / self._last_probe
            data = path.read_bytes()
            if self.tracer is not None:
                with self.tracer.operation(next(self._ids), "op.emit_csv"):
                    self.harness.emit_csv(records, path)
                self.csv_traced_seconds[seed] = self.tracer.last_op_seconds
                if path.read_bytes() != data:
                    problems.append("traced CSV differs from the untraced CSV")
        except (OSError, ValueError) as exc:
            problems.append(f"emit_csv failed: {exc}")
            data = b""
        rows = data.decode("utf-8").splitlines()[1:]
        if len(rows) != n_cells:
            problems.append(f"CSV of seed {seed} has {len(rows)} rows, expected {n_cells}")
        for row, rec in zip(rows, records):
            fields = row.split(",")
            if fields[0] != rec.policy or fields[4] != str(seed):
                problems.append(f"CSV row {row!r} does not match record {rec.policy}/{seed}")
        self.csv_sha256[seed] = hashlib.sha256(data).hexdigest()
        for op in seed_ops:
            if op.kind == "episode":
                op.problems += problems


def _check_bound(ops: list[Op]) -> int:
    """Fail the bounds if any policy's seed-mean reward exceeds the seed-mean bound.

    Returns how many single (policy, seed) rewards exceed their seed's bound:
    the bound is on expected reward, so those are counted, not failed.
    """
    bound_ops = {op.seed: op for op in ops if op.kind == "bound" and not op.problems}
    rewards: dict[str, list[tuple[float, float]]] = {}
    exceed = 0
    for op in ops:
        if op.kind == "episode" and op.seed in bound_ops and not op.problems:
            b = bound_ops[op.seed].value
            rewards.setdefault(op.label, []).append((op.value.discounted_reward, b))
            exceed += op.value.discounted_reward > b
    for label, pairs in rewards.items():
        mean_reward = statistics.fmean(r for r, _ in pairs)
        mean_bound = statistics.fmean(b for _, b in pairs)
        if mean_reward > mean_bound:
            for op in bound_ops.values():
                op.problems.append(
                    f"{label}: seed-mean reward {mean_reward:.6g} exceeds seed-mean bound {mean_bound:.6g}"
                )
    return exceed


def _metric(value: float, unit: str, n: int) -> dict:
    return {"value": value, "unit": unit, "n": n}


def _end_to_end(runner: Runner, seeds: list[int], setup: list[tuple[float, float, float]]) -> dict:
    ok = [op for op in runner.ops if not op.problems]
    episodes = [op for op in ok if op.kind == "episode"]
    bounds = [op for op in ok if op.kind == "bound"]
    attempted = len(runner.ops)
    failed = attempted - len(ok)
    m = {}
    if setup:
        m["setup_s"] = _metric(statistics.median(ref for _, ref, _ in setup), "s", len(setup))
    if episodes:
        # One seed's sweep runs every operation of the plan once; each part
        # is its median over the run's seeds, so a minority of slow or fast
        # moments on a shared machine moves it little.
        parts: dict[tuple[str, str], list[Op]] = {}
        for op in ok:
            parts.setdefault((op.kind, op.cell.name), []).append(op)

        def sweep(seconds, csv_seconds: dict) -> float:
            medians = (statistics.median(seconds(op) for op in of_key) for of_key in parts.values())
            return sum(medians) + statistics.median(csv_seconds.values())

        m["sweep_s"] = _metric(sweep(lambda op: op.ref_seconds, runner.csv_ref_seconds), "s", len(seeds))
        slots = sum(op.cell.config.num_users * op.cell.config.horizon for op in episodes)
        m["user_slots_per_s"] = _metric(slots / sum(op.ref_seconds for op in episodes), "1/s", len(episodes))
        times_ms = [1e3 * op.ref_seconds for op in episodes]
        m["episode_ms_p50"] = _metric(statistics.median(times_ms), "ms", len(times_ms))
        if len(times_ms) >= P90_MIN_SAMPLES:
            m["episode_ms_p90"] = _metric(statistics.quantiles(times_ms, n=10)[8], "ms", len(times_ms))
        for label in dict.fromkeys(op.label for op in episodes):
            of_label = [1e3 * op.ref_seconds for op in episodes if op.label == label]
            m[f"episode_ms.{label}"] = _metric(statistics.median(of_label), "ms", len(of_label))
    if bounds:
        m["bound_s_p50"] = _metric(statistics.median(op.ref_seconds for op in bounds), "s", len(bounds))
    m["peak_rss_mb"] = _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    m["failed_ratio"] = _metric(failed / attempted, "ratio", attempted)
    # unscaled, for information: the wall times and the host speed they were taken at
    if setup:
        m["setup_wall_s"] = _metric(statistics.median(wall for wall, _, _ in setup), "s", len(setup))
        m["setup_probe_s_p50"] = _metric(statistics.median(probe for _, _, probe in setup), "s", len(setup))
    if episodes:
        m["sweep_wall_s"] = _metric(sweep(lambda op: op.seconds, runner.csv_seconds), "s", len(seeds))
        probes = [p for op in ok for p in op.probe_seconds]
        m["probe_ms_p50"] = _metric(1e3 * statistics.median(probes), "ms", len(probes))
    return m


def _per_layer(runner: Runner, tracer: Tracer, seeds: list[int], report: dict) -> dict:
    """Per-layer metrics of a traced run; also prints them and fills ``report``."""
    ok = [op for op in runner.ops if not op.problems]
    episodes = {op.id: op.label for op in ok if op.kind == "episode"}
    layers, table = layer_metrics(tracer, episodes, len(seeds))
    untraced = sum(op.seconds for op in ok) + sum(runner.csv_seconds.values())
    traced = sum(op.traced_seconds for op in ok) + sum(runner.csv_traced_seconds.values())
    overhead = traced / untraced - 1.0 if untraced else 0.0
    layers["trace.sweep_overhead_ratio"] = (overhead, "ratio")
    per_layer = {k: v if v == "absent" else _metric(v[0], v[1], len(seeds)) for k, v in layers.items()}
    report.update(
        per_layer=per_layer,
        self_time_table=table,
        absent_hooks=tracer.absent,
        sweep_s_untraced=untraced / len(seeds),
        sweep_s_traced=traced / len(seeds),
    )
    _print_table("per-layer (traced)", per_layer)
    print("self time by layer (traced)")
    for row in table:
        print(f"  {row['layer']:<10} {row['self_ms']:>12.1f} ms {100 * row['share']:>6.1f}%  spans={row['spans']}")
    print(f"  tracing overhead on sweep time: {100 * overhead:.1f}%")
    if tracer.absent:
        print(f"  absent hooks: {', '.join(tracer.absent)}")
    return per_layer


def _print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, v in metrics.items():
        if v == "absent":
            print(f"  {name:<42} {'absent':>14}")
        else:
            print(f"  {name:<42} {v['value']:>14.6g} {v['unit']:<6} n={v['n']}")


def main(argv: Optional[list[str]] = None) -> int:
    args = _parse(argv)
    if not (SRC / "edgebandit" / "__init__.py").is_file():
        print(f"error: no edgebandit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import edgebandit
    from edgebandit import harness

    if Path(edgebandit.__file__).resolve().parent != (SRC / "edgebandit").resolve():
        print(f"error: imported edgebandit from {edgebandit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wl = WORKLOADS[args.workload]
    cells = build_cells(args.workload, args.size)
    OUT_DIR.mkdir(exist_ok=True)
    csv_path = OUT_DIR / f"{args.workload}.csv"

    # let lazy imports and caches settle before anything is timed
    warm = build_cells(args.workload, "smoke")
    for cell in warm:
        harness.run_episode(cell.config, 0)
    if wl.bound:
        harness.compute_relaxed_bound(warm[0].config, 0)
    for _ in range(3):
        _probe()

    setup = [] if args.trace else _time_setup(args.workload, args.size)

    tracer = Tracer() if args.trace else None
    runner = Runner(harness, tracer)
    plan = [("episode", c) for c in cells] + ([("bound", cells[0])] if wl.bound else [])
    seeds: list[int] = []
    seed_walls: list[float] = []
    deadline = perf_counter() + args.seconds
    # whole seeds only, so every cell has the same number of samples
    for seed in episode_seeds(args.seed):
        t0 = perf_counter()
        if seeds and t0 + statistics.median(seed_walls) > deadline:
            break
        seed_ops = [runner.run(kind, seed, cell) for kind, cell in plan]
        runner.write_csv(seed, seed_ops, len(cells), csv_path)
        seeds.append(seed)
        seed_walls.append(perf_counter() - t0)
    bound_exceed = _check_bound(runner.ops) if wl.bound else 0

    e2e = _end_to_end(runner, seeds, setup)
    attempted = len(runner.ops)
    failed = sum(1 for op in runner.ops if op.problems)
    for op in runner.ops:
        for problem in op.problems:
            print(f"FAILED {op.kind} {op.label} seed {op.seed}: {problem}", file=sys.stderr)

    report = {
        "workload": args.workload,
        "workload_seed": args.seed,
        "seeds": seeds,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": _provenance(),
        "attempted": attempted,
        "failed": failed,
        "bound_exceed_count": bound_exceed,
        "csv_sha256": {str(s): h for s, h in runner.csv_sha256.items()},
        "end_to_end": e2e,
    }
    _print_table(f"{args.workload} seed {args.seed}: end-to-end (untraced)", e2e)
    if wl.bound:
        print(f"  single (policy, seed) rewards above their seed's bound: {bound_exceed}")
    for s, h in runner.csv_sha256.items():
        print(f"  csv sha256 seed {s}: {h}")

    if args.trace:
        per_layer = _per_layer(runner, tracer, seeds, report)
        np.savez(OUT_DIR / f"{args.workload}-spans.npz", **tracer.arrays())
        gated, source = spec["per_layer"], per_layer
    else:
        gated, source = spec["end_to_end"], e2e

    timings = [
        [op.kind, op.cell.name, op.seed, op.seconds, op.probe_seconds, op.traced_seconds] for op in runner.ops
    ]
    (OUT_DIR / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({**report, "operations": timings}, indent=1), encoding="utf-8"
    )
    print(json.dumps(report))
    metrics = {
        m["name"]: {"value": source[m["name"]]["value"], "unit": source[m["name"]]["unit"]}
        for m in gated
        if isinstance(source.get(m["name"]), dict)
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
