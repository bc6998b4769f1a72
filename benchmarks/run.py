"""Benchmark of the perturbed-bandits command line.

    python3 benchmarks/run.py --workload stochastic-figure --seed 2019 --seconds 25 --trace 0

Run from the repository root.  The benchmark writes each workload's JSON
configs from ``--seed``, then:

* ``--trace 0`` times set-up (fresh interpreters that import the package,
  load the configs and expand their grids), then runs whole rounds of the
  workload's CLI invocations, each as a child process, for as many whole
  rounds as fit in ``--seconds`` (at least one; the last may run over by
  up to half a round), and checks every output.  It reports the end-to-end metrics.
* ``--trace 1`` calls ``cli.main`` in this process instead, in pairs of
  rounds: one untraced, one with the package's public functions wrapped in
  spans.  It checks the traced outputs, compares them byte for byte with the
  untraced ones, and reports per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  An operation is a CLI invocation
or an output check.  Outputs go to ``.bench_out/<workload>/``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

DEFAULT_SEED = 2019
SETUP_REPS = 3
INVOCATION_TIMEOUT_S = 120.0

CHECKPOINTS = [100, 1000, 5000, 10000]
REWARD_MODELS = ("uniform_shift", "rademacher_shift", "gaussian_shift", "gaussian_mixture_shift")
FIGURE_POLICIES = [
    {"kind": "ucb1"},
    {"kind": "rcb", "perturbation": "uniform", "epsilon": 0.25},
    {"kind": "rcb", "perturbation": "rademacher", "epsilon": 0.25},
    {"kind": "ftpl", "perturbation": "gaussian", "sigma": 1.0},
    {"kind": "ftpl", "perturbation": "double_exponential", "sigma": 1.0},
]
WIDE_POLICIES = [FIGURE_POLICIES[0], FIGURE_POLICIES[2], FIGURE_POLICIES[3]]
GBPA_POTENTIALS = [
    {"kind": "ftpl", "perturbation": "gumbel", "eta": "auto", "mc_samples": 200},
    {"kind": "shannon", "eta": 187.0},
    {"kind": "tsallis", "eta": 50.0, "alpha": 0.5},
]
WORKLOADS = ("stochastic-figure", "stochastic-wide", "adversarial-gbpa", "evt-verify")

SETUP_CODE = """
import sys
from perturbed_bandits import harness
for path in sys.argv[1:]:
    config = harness.load_config(path)
    for entry in config.policies:
        harness.expand_policy_entry(entry)
    for entry in config.potentials:
        harness.expand_potential_entry(entry, config.K, config.T)
"""


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``label`` names its config file and output directory;
    ``work`` counts the bandit rounds or block maxima it computes."""

    label: str
    command: str
    config: dict
    threads: int
    work: int


def _simulation(label: str, config: dict, threads: int) -> Invocation:
    grid = len(config.get("policies", config.get("potentials", [])))
    return Invocation(label, config["mode"], config, threads, config["episodes"] * grid * config["T"])


def invocations(workload: str, seed: int) -> list[Invocation]:
    if workload == "stochastic-figure":
        return [
            _simulation(
                f"stochastic-{model}",
                {"mode": "stochastic", "seed": seed, "K": 10, "T": 10_000, "episodes": 2,
                 "reward_model": model, "checkpoints": CHECKPOINTS, "policies": FIGURE_POLICIES},
                threads=2,
            )
            for model in REWARD_MODELS
        ]
    if workload == "stochastic-wide":
        config = {"mode": "stochastic", "seed": seed, "K": 300, "T": 10_000, "episodes": 3,
                  "reward_model": "gaussian_mixture_shift", "checkpoints": CHECKPOINTS, "policies": WIDE_POLICIES}
        return [_simulation("stochastic-wide", config, threads=1)]
    if workload == "adversarial-gbpa":
        config = {"mode": "adversarial", "seed": seed, "K": 10, "T": 10_000, "episodes": 2,
                  "adversary": "single_best_arm", "checkpoints": CHECKPOINTS, "potentials": GBPA_POTENTIALS}
        return [_simulation("adversarial-gbpa", config, threads=1)]
    if workload == "evt-verify":
        evt = {"mode": "evt", "seed": seed, "K_list": [1000], "n_blocks": 100_000}
        return [
            Invocation("evt-table", "evt-table", evt, 1, len(checks.EVT_ROWS) * len(evt["K_list"]) * evt["n_blocks"]),
            Invocation("theory-check", "theory-check", {"mode": "theory", "seed": seed}, 1, 0),
        ]
    raise ValueError(workload)


def check_outputs(inv: Invocation, out_dir: Path, exit_code: int) -> list[tuple[str, bool, str]]:
    if inv.command == "stochastic":
        results = checks.check_stochastic(out_dir / "stochastic_regret.csv", inv.config)
    elif inv.command == "adversarial":
        results = checks.check_adversarial(out_dir / "adversarial_regret.csv", inv.config)
    elif inv.command == "evt-table":
        results = checks.check_evt(out_dir / "evt_table.csv", inv.config, exit_code)
    else:
        results = checks.check_theory(out_dir / "theory_checks.txt", exit_code)
    return [(f"{inv.label}:{name}", ok, detail) for name, ok, detail in results]


def cli_args(inv: Invocation, config_path: Path, out: Path) -> list[str]:
    return [inv.command, "--config", str(config_path), "--out", str(out), "--threads", str(inv.threads)]


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], log_path: Path) -> tuple[float, float, int]:
    """Run one child process; return (wall seconds from start to exit, its
    max RSS in MiB, exit code).  A child still running after
    INVOCATION_TIMEOUT_S is killed."""
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=_child_env(), cwd=ROOT)
        killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def measure_setup(config_paths: list[Path], work: Path) -> float:
    times = []
    for rep in range(SETUP_REPS):
        log = work / f"setup-{rep}.log"
        wall, _, code = run_child([sys.executable, "-c", SETUP_CODE, *map(str, config_paths)], log)
        if code != 0:
            raise RuntimeError(f"set-up failed with exit {code}:\n{log.read_text()}")
        times.append(wall)
    return statistics.median(times)


def untraced_round(invs, config_paths, work: Path) -> tuple[dict, list]:
    walls, rss, results = [], [], []
    for inv, config_path in zip(invs, config_paths):
        out = _fresh(work / "out" / inv.label)
        argv = [sys.executable, "-m", "perturbed_bandits.cli", *cli_args(inv, config_path, out)]
        wall, maxrss, code = run_child(argv, work / f"{inv.label}.log")
        walls.append(wall)
        rss.append(maxrss)
        results.append((f"{inv.label}:exit", code == 0, f"exit {code}, see {work / (inv.label + '.log')}"))
        results.extend(check_outputs(inv, out, code))
    work_wall = sum(w for w, inv in zip(walls, invs) if inv.work)
    round_metrics = {
        "wall_s": sum(walls),
        "items_per_s": sum(inv.work for inv in invs) / work_wall,
        "peak_rss_mib": max(rss),
    }
    return round_metrics, results


def repeat_rounds(seconds: float, do_round) -> list:
    """Call ``do_round`` at least once, then again while one more round of
    the mean length so far would end less than half a round past ``seconds``."""
    start = time.perf_counter()
    rounds = [do_round()]
    while (time.perf_counter() - start) * (len(rounds) + 0.5) / len(rounds) < seconds:
        rounds.append(do_round())
    return rounds


def run_untraced(invs, config_paths, work: Path, seconds: float) -> tuple[dict, list]:
    setup_s = measure_setup(config_paths, work)
    measured = repeat_rounds(seconds, lambda: untraced_round(invs, config_paths, work))
    rounds = [m for m, _ in measured]
    results = [r for _, round_results in measured for r in round_results]
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "items_per_s": (statistics.median(r["items_per_s"] for r in rounds), "items/s"),
        "peak_rss_mib": (max(r["peak_rss_mib"] for r in rounds), "MiB"),
    }
    return metrics, results


def inprocess_round(cli, invs, config_paths, out_root: Path) -> tuple[float, list[int]]:
    """Call cli.main once per invocation; return the summed wall time and exit codes."""
    wall, codes = 0.0, []
    for inv, config_path in zip(invs, config_paths):
        out = _fresh(out_root / inv.label)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(cli_args(inv, config_path, out))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed invocation; the round goes on
            traceback.print_exc()
            code = 1
        wall += time.perf_counter() - start
        codes.append(code)
    return wall, codes


def same_outputs(a: Path, b: Path) -> tuple[bool, str]:
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    if names_a != names_b:
        return False, f"files {names_a} against {names_b}"
    differing = [n for n in names_a if (a / n).read_bytes() != (b / n).read_bytes()]
    return not differing, f"traced output differs: {differing}" if differing else ""


def run_traced(invs, config_paths, work: Path, seconds: float) -> tuple[dict, list]:
    sys.path.insert(0, str(SRC))
    import tracing
    from perturbed_bandits import cli

    tracer = tracing.Tracer()
    dirs = {False: work / "untraced", True: work / "traced"}
    pairs, results = [], []

    def pair():
        # Alternate which side runs first, so that warm-up favours neither.
        order = (False, True) if len(pairs) % 2 == 0 else (True, False)
        walls, codes = {}, {}
        for traced in order:
            if traced:
                tracer.install()
            try:
                walls[traced], codes[traced] = inprocess_round(cli, invs, config_paths, dirs[traced])
            finally:
                tracer.uninstall()
        pairs.append((walls[False], walls[True]))
        for i, inv in enumerate(invs):
            for traced in (False, True):
                code = codes[traced][i]
                results.append((f"{inv.label}:exit{'.traced' if traced else ''}", code == 0, f"exit {code}"))
            results.extend(check_outputs(inv, dirs[True] / inv.label, codes[True][i]))
            results.append((f"{inv.label}:traced_identical", *same_outputs(dirs[False] / inv.label, dirs[True] / inv.label)))

    repeat_rounds(seconds, pair)
    tracer.write_spans(work / "spans.csv")
    metrics = tracing.layer_metrics(tracer.spans, len(pairs))
    untraced = statistics.median(u for u, _ in pairs)
    overhead = statistics.median(t - u for u, t in pairs)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_pct"] = (100.0 * overhead / untraced, "%")
    return metrics, results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "perturbed_bandits" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'perturbed_bandits'}", file=sys.stderr)
        return 2

    work = _fresh(OUT / args.workload)
    invs = invocations(args.workload, args.seed)
    config_paths = []
    for inv in invs:
        path = work / f"{inv.label}.json"
        path.write_text(json.dumps(inv.config, indent=2) + "\n")
        config_paths.append(path)
    try:
        if args.trace:
            metrics, results = run_traced(invs, config_paths, work, args.seconds)
        else:
            metrics, results = run_untraced(invs, config_paths, work, args.seconds)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failures = [(name, detail) for name, ok, detail in results if not ok]
    for name, detail in failures:
        print(f"FAIL {name}: {detail}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(results),
                "failed": len(failures),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
