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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perturbed-bandits",
        description="Seeded bandit simulations and numerical theory checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, needs_config, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, required=needs_config, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="master seed (overrides the config)")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        p.add_argument("--threads", type=int, default=1, help="play episodes in up to min(THREADS, CPUs, episodes) processes")
    return parser


def _resolve_config(args: argparse.Namespace) -> harness.ExperimentConfig:
    _, modes, _, _ = COMMANDS[args.command]
    if args.config is None:
        config = harness.ExperimentConfig(mode=modes[0], seed=0)
    else:
        config = harness.load_config(args.config)
        if config.mode not in modes:
            raise ValueError(f"config mode is {config.mode!r}, but {args.command} runs {' or '.join(modes)} configs")
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def _run_simulation(args: argparse.Namespace, config: harness.ExperimentConfig) -> int:
    result = harness.run_experiment(config, args.threads)
    csv_path = args.out / f"{config.mode}_regret.csv"
    harness.emit_csv(result, csv_path)
    harness.emit_svg_lineplot(result, args.out / f"{config.mode}_regret.svg")
    print(f"wrote {csv_path}")
    return 0


def _run_grid_search(args: argparse.Namespace, config: harness.ExperimentConfig) -> int:
    search = harness.grid_search(config, args.threads)
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


def _exit_status(results, what: str) -> int:
    """1, with a count of the failures on stderr, if any of ``results`` failed; else 0."""
    failed = sum(not r.passed for r in results)
    if failed:
        print(f"{failed} of {len(results)} {what}", file=sys.stderr)
    return int(failed > 0)


def _run_evt_table(args: argparse.Namespace, config: harness.ExperimentConfig) -> int:
    reports = harness.run_evt_mode(config, args.out / "evt_table.csv")
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"{status}  {r.spec.label()} K={r.block_size}: mc={r.mc_estimate:.4f} "
            f"asymptotic={r.asymptotic:.4f} stderr={r.mc_stderr:.2g}"
        )
    return _exit_status(reports, "block-maxima rows outside tolerance")


def _run_theory_check(args: argparse.Namespace, config: harness.ExperimentConfig) -> int:
    rows = harness.run_theory_mode(config, args.out / "theory_checks.txt")
    print(rows_to_text(rows), end="")
    return _exit_status(rows, "theory checks failed")


# Each command: its help text, the config modes it runs (without a config it
# runs the defaults of the first), whether it needs a config, and its handler.
COMMANDS = {
    "stochastic": ("stochastic-bandit regret experiment", ("stochastic",), True, _run_simulation),
    "adversarial": ("adversarial-bandit regret experiment", ("adversarial",), True, _run_simulation),
    "grid-search": (
        "exhaustive parameter tuning over a config's grids",
        ("stochastic", "adversarial"),
        True,
        _run_grid_search,
    ),
    "evt-table": ("verify expected block maxima against their asymptotics", ("evt",), False, _run_evt_table),
    "theory-check": ("verify choice-theory barriers and correspondences", ("theory",), False, _run_theory_check),
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    made = []
    try:
        if args.threads < 1:
            raise ValueError(f"--threads must be >= 1, got {args.threads}")
        config = _resolve_config(args)
        # The directories this call makes, deepest first: a command that fails
        # leaves none of them empty, and removes none that existed.
        made = [d for d in (args.out, *args.out.parents) if not d.exists()]
        args.out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command][3](args, config)
    except (OSError, ValueError, MemoryError, json.JSONDecodeError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    finally:
        for d in made:
            if d.is_dir() and not any(d.iterdir()):
                d.rmdir()


if __name__ == "__main__":
    sys.exit(main())
