"""Command-line interface.

Subcommands:
  simulate           run an experiment preset or a single configured cell
  verify-index       dump index vs oracle values over a state grid
  check-indexability passive-set monotonicity check on random arm configurations

Exit status is 0 only if every requested cell succeeded.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import (
    PRESETS,
    ConfigError,
    ExperimentCell,
    SimConfig,
    apply_overrides,
    parse_config_file,
    preset_cells,
)
from .dynamics import PenaltyFn
from .harness import emit_csv, run_experiment
from .whittle import (
    SubsidizedArmMDP,
    _bracket,
    indexability_check,
    subsidy_threshold_table,
    whittle_index_array,
)


def _add_simulate(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("simulate", help="run episodes and write a CSV of run records")
    p.add_argument("--config", type=Path, help="flat key=value config file")
    p.add_argument("--preset", choices=list(PRESETS))
    p.add_argument("--seeds", type=int, default=None, help="number of replications")
    p.add_argument("--out", type=Path, default=Path("results.csv"))
    p.add_argument("--policy", help="restrict to one policy label (e.g. wi, stlw-wi, bl-wi)")
    p.add_argument("--bound", action="store_true", help="compute the relaxed upper bound per cell")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")


def _cmd_simulate(args: argparse.Namespace) -> int:
    base = SimConfig()
    if args.config:
        base = apply_overrides(base, parse_config_file(args.config))
    if args.preset:
        cells = preset_cells(args.preset, base, policy_filter=args.policy)
    else:
        if args.policy:
            base = apply_overrides(base, {"policy": args.policy})
        cells = [ExperimentCell(name="custom", config=base)]
    for cell in cells:  # a bad setting is a configuration error, not a failed cell
        cell.config.validate()
    n_seeds = args.seeds if args.seeds is not None else cells[0].config.replications
    if n_seeds < 1:
        raise ConfigError("--seeds must be >= 1")
    seeds = list(range(n_seeds))

    result = run_experiment(cells, seeds, compute_bound=args.bound, jobs=args.jobs)
    if result.records:
        emit_csv(result.records, args.out)
        print(f"wrote {len(result.records)} records to {args.out}")
    for s in result.summaries:
        print(
            f"{s.cell}: reward {s.reward_mean:.6g} +/- {s.reward_ci:.2g}, "
            f"completion {s.completion_mean:.4f} +/- {s.completion_ci:.2g}, "
            f"saving {s.saving_mean:.6g} +/- {s.saving_ci:.2g}  (n={s.n_runs})"
        )
    for cell, bound in sorted(result.metadata.get("tail_bound", {}).items()):
        print(f"{cell}: horizon-truncation tail bound {bound:.4g}")
    for cell, seed, err in result.failures:
        print(f"FAILED {cell} seed={seed}: {err}", file=sys.stderr)
    return 0 if result.ok else 1


def _add_verify_index(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "verify-index",
        help="index vs subsidy-threshold oracle over a state grid",
    )
    p.add_argument("--tau-max", type=int, default=10)
    p.add_argument("--b-max", type=int, default=30)
    p.add_argument("--capacity", type=int, default=4)
    p.add_argument("--discount", type=float, default=0.99)
    p.add_argument("--e-saving", type=float, default=1.0)
    # the index matches the oracle for both penalties and any sign of the
    # saving: 3.5e-10, the bisection tolerance, in the fig6 case
    # --penalty experiment --alpha 5 --capacity 2, also with --e-saving -1
    p.add_argument("--penalty", choices=["experiment", "theory"], default="theory")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--out", type=Path, default=Path("grid.csv"))


def _cmd_verify_index(args: argparse.Namespace) -> int:
    penalty = (
        PenaltyFn.experiment(args.alpha) if args.penalty == "experiment" else PenaltyFn.theory(args.alpha)
    )
    try:
        mdp = SubsidizedArmMDP(
            horizon=args.tau_max,
            max_backlog=args.b_max,
            capacity=args.capacity,
            discount=args.discount,
            penalty=penalty,
            e_saving=args.e_saving,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    oracle = subsidy_threshold_table(mdp)
    taus, bs = np.nonzero(~np.isnan(oracle))
    closed = whittle_index_array(
        taus, bs, np.full(taus.shape, args.e_saving), np.full(taus.shape, args.capacity),
        args.discount, penalty,
    )
    lines = ["tau,backlog,closed_form,oracle,abs_difference"]
    worst = 0.0
    for t, b, cf in zip(taus, bs, closed):
        ora = oracle[t, b]
        diff = abs(cf - ora)
        worst = max(worst, diff)
        lines.append(f"{t},{b},{cf:.17g},{ora:.17g},{diff:.17g}")
    args.out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines) - 1} states to {args.out}; max |index - oracle| = {worst:.3g}")
    return 0 if worst <= 1e-6 else 1


def _add_check_indexability(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "check-indexability",
        help="verify passive sets grow monotonically on random arm configurations",
    )
    p.add_argument("--configs", type=int, default=50)
    p.add_argument("--grid-points", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)


def _cmd_check_indexability(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    bad = 0
    for trial in range(args.configs):
        alpha = float(rng.uniform(0.1, 5.0))
        penalty = PenaltyFn.experiment(alpha) if rng.random() < 0.5 else PenaltyFn.theory(alpha)
        mdp = SubsidizedArmMDP(
            horizon=int(rng.integers(3, 11)),
            max_backlog=int(rng.integers(5, 31)),
            capacity=int(rng.integers(1, 11)),
            discount=float(rng.uniform(0.85, 0.999)),
            penalty=penalty,
            e_saving=float(rng.uniform(-2.0, 3.0)),
        )
        width = _bracket(mdp.penalty, mdp.max_backlog, abs(mdp.e_saving))
        grid = np.linspace(-width, width, args.grid_points)
        report = indexability_check(mdp, grid)
        status = "ok" if report else f"VIOLATION {report.violation}"
        print(f"config {trial}: k={mdp.capacity} beta={mdp.discount:.3f} "
              f"e={mdp.e_saving:+.3f} -> {status}")
        if not report:
            bad += 1
    print(f"{args.configs - bad}/{args.configs} configurations indexable")
    return 0 if bad == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="edgebandit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_simulate(sub)
    _add_verify_index(sub)
    _add_check_indexability(sub)
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "verify-index":
            return _cmd_verify_index(args)
        return _cmd_check_indexability(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
