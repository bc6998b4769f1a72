"""Command-line front end.

Subcommands: ``stochastic``, ``adversarial``, ``grid-search`` run seeded
simulation experiments from a JSON config and write CSV (and SVG) into the
output directory; ``evt-table`` and ``theory-check`` run the numerical
verification suites and exit nonzero when any check fails.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import harness
from .choice_theory import rows_to_text


def _add_common(parser: argparse.ArgumentParser, needs_config: bool) -> None:
    parser.add_argument("--config", type=Path, required=needs_config, help="JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="master seed (overrides the config)")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    parser.add_argument("--threads", type=int, default=1, help="has no effect; episodes run in order on one thread")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perturbed-bandits",
        description="Seeded bandit simulations and numerical theory checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, needs_config in (
        ("stochastic", "stochastic-bandit regret experiment", True),
        ("adversarial", "adversarial-bandit regret experiment", True),
        ("grid-search", "exhaustive parameter tuning over a config's grids", True),
        ("evt-table", "verify expected block maxima against their asymptotics", False),
        ("theory-check", "verify choice-theory barriers and correspondences", False),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p, needs_config)
    return parser


def _resolve_config(args: argparse.Namespace, mode: str) -> harness.ExperimentConfig:
    if args.config is not None:
        config = harness.load_config(args.config)
        if mode in ("stochastic", "adversarial") and config.mode != mode:
            raise SystemExit(f"config mode is {config.mode!r} but the {mode} command was invoked")
    else:
        config = harness.ExperimentConfig(mode=mode, seed=0)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def _run_simulation(args: argparse.Namespace, mode: str) -> int:
    config = _resolve_config(args, mode)
    args.out.mkdir(parents=True, exist_ok=True)
    result = harness.run_experiment(config, threads=args.threads)
    csv_path = args.out / f"{config.mode}_regret.csv"
    harness.emit_csv(result, csv_path)
    harness.emit_svg_lineplot(result, args.out / f"{config.mode}_regret.svg")
    print(f"wrote {csv_path}")
    return 0


def _run_grid_search(args: argparse.Namespace) -> int:
    config = _resolve_config(args, "grid-search")
    args.out.mkdir(parents=True, exist_ok=True)
    search = harness.grid_search(config, threads=args.threads)
    harness.emit_csv(search.all_results, args.out / "grid_results.csv")
    best_path = args.out / "grid_best.json"
    with open(best_path, "w") as fh:
        json.dump([dataclasses.asdict(entry) for entry in search.best], fh, indent=2)
        fh.write("\n")
    for entry in search.best:
        tie_note = f" (ties within stderr: {', '.join(entry.tied_within_stderr)})" if entry.tied_within_stderr else ""
        print(
            f"{entry.policy}: best {entry.best_param or '(no parameter)'} "
            f"final R(T)/T = {entry.mean_avg_regret:.5g} +- {entry.stderr:.2g}{tie_note}"
        )
    print(f"wrote {best_path}")
    return 0


def _run_evt_table(args: argparse.Namespace) -> int:
    config = _resolve_config(args, "evt")
    args.out.mkdir(parents=True, exist_ok=True)
    reports = harness.run_evt_mode(config, args.out / "evt_table.csv")
    failed = 0
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        failed += not r.passed
        print(
            f"{status}  {r.spec.label()} K={r.block_size}: mc={r.mc_estimate:.4f} "
            f"asymptotic={r.asymptotic:.4f} stderr={r.mc_stderr:.2g}"
        )
    if failed:
        print(f"{failed} of {len(reports)} block-maxima rows outside tolerance", file=sys.stderr)
        return 1
    return 0


def _run_theory_check(args: argparse.Namespace) -> int:
    config = _resolve_config(args, "theory")
    args.out.mkdir(parents=True, exist_ok=True)
    rows = harness.run_theory_mode(config, args.out / "theory_checks.txt")
    print(rows_to_text(rows), end="")
    failed = sum(not r.passed for r in rows)
    if failed:
        print(f"{failed} of {len(rows)} theory checks failed", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ValueError(f"--threads must be >= 1, got {args.threads}")
        if args.command in ("stochastic", "adversarial"):
            return _run_simulation(args, args.command)
        if args.command == "grid-search":
            return _run_grid_search(args)
        if args.command == "evt-table":
            return _run_evt_table(args)
        return _run_theory_check(args)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
