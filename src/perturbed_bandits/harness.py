"""Experiment harness: JSON config in, seeded episodes run in one or more
processes, aggregated average-regret tables out as CSV and SVG.

Determinism contract: every random stream is derived from
SeedSequence([master_seed, episode_index]), never from execution order or
process, so results are identical across reruns and thread counts.  Each
episode draws its instance and its reward table once, and every compared
policy or potential plays that one table (the seeding rule is stated in
``_episode``).
"""
from __future__ import annotations

import csv
import html
import json
import math
import numbers
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import adversarial as adv
from . import distributions as dist
from . import extremes
from .adversarial import PotentialSpec, run_gbpa, regret_at_checkpoints, tune_eta
from .choice_theory import run_theory_checks, rows_to_text
from .distributions import RewardModel
from .stochastic import BanditInstance, PolicyConfig, run_episode

DEFAULT_CHECKPOINTS = (100, 1000, 5000, 10000)

# The config fields each mode reads, besides "mode" and "seed".
MODES = {
    "stochastic": ("K", "T", "episodes", "reward_model", "checkpoints", "policies"),
    "adversarial": ("K", "T", "episodes", "adversary", "checkpoints", "potentials"),
    "evt": ("K_list", "n_blocks"),
    "theory": (),
}

# Each oblivious adversary: its T x K reward matrix from (T, K, seed sequence).
ADVERSARIES = {
    "single_best_arm": lambda T, K, seed: adv.make_single_best_arm_rewards(T, K),
    "constant": lambda T, K, seed: adv.make_constant_rewards(T, K),
    "iid": adv.make_iid_rewards,
}


class Kind(NamedTuple):
    """One policy or potential kind: the keys passed to the object it builds,
    the key that may hold a list of grid values, the grid point's label (a
    format string of that object), and the perturbations it may use, the first
    being the default.  It also accepts its perturbation's key and no other.
    Defaults and range checks live in the objects it builds."""

    keys: tuple[str, ...] = ()
    grid: str = ""
    label: str = ""
    perturbations: tuple[str, ...] = ()


POLICY_KINDS = {
    "ucb1": Kind(),
    "thompson": Kind(),
    "ftpl": Kind((), "sigma", "sigma={0.spec.sigma:g}", (dist.GAUSSIAN, dist.DOUBLE_EXPONENTIAL)),
    "rcb": Kind(("epsilon",), "epsilon", "eps={0.epsilon:g}", (dist.UNIFORM, dist.RADEMACHER)),
}
_ETA = "eta={0.eta:g}"
POTENTIAL_KINDS = {
    "shannon": Kind(("eta",), "eta", _ETA),
    "tsallis": Kind(("eta", "alpha"), "eta", _ETA),
    "ftpl": Kind(
        ("eta", "mc_samples"),
        "eta",
        _ETA,
        (dist.GUMBEL, dist.GAMMA, dist.WEIBULL, dist.FRECHET, dist.PARETO),
    ),
}

CSV_HEADER = "policy,param,t,mean_avg_regret,stderr,episodes,seed"


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: what to run, with which parameter grids, from which seed."""

    mode: str
    seed: int
    K: int = 10
    T: int = 10_000
    episodes: int = 200
    reward_model: str = dist.GAUSSIAN_SHIFT
    adversary: str = "single_best_arm"
    checkpoints: tuple[int, ...] = DEFAULT_CHECKPOINTS
    policies: tuple = ()
    potentials: tuple = ()
    K_list: tuple[int, ...] = (1000,)
    n_blocks: int = 100_000

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {list(MODES)}, got {self.mode!r}")
        for name in ("seed", "K", "T", "episodes", "n_blocks"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("checkpoints", "K_list"):
            if not all(_is_int(v) for v in getattr(self, name)):
                raise ValueError(f"{name} must be a list of integers, got {list(getattr(self, name))!r}")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        RewardModel(self.reward_model)  # raises on an unknown reward model
        if not isinstance(self.adversary, str) or self.adversary not in ADVERSARIES:
            raise ValueError(f"unknown adversary: {self.adversary!r}; expected one of {list(ADVERSARIES)}")
        if self.mode in ("stochastic", "adversarial"):
            if self.episodes < 1:
                raise ValueError("episodes must be >= 1")
            if self.K < 2 or self.T < 1:
                raise ValueError("need K >= 2 and T >= 1")
            keys = [(obj.label(), param) for obj, param in self.grid()]
            if not keys:
                raise ValueError(f"{self.mode} mode needs a nonempty parameter grid")
            if len(set(keys)) < len(keys):
                raise ValueError(f"duplicate grid points: {sorted({k for k in keys if keys.count(k) > 1})}")
            cps = self.effective_checkpoints()
            if not cps:
                raise ValueError("no checkpoint lies within the horizon")
        if self.mode == "evt":
            if not self.K_list or min(self.K_list) < 2 or len(set(self.K_list)) < len(self.K_list):
                raise ValueError(f"K_list must be a nonempty list of distinct block sizes >= 2, got {list(self.K_list)}")
            if self.n_blocks < 100:
                raise ValueError(f"n_blocks must be >= 100, got {self.n_blocks}")

    def effective_checkpoints(self) -> tuple[int, ...]:
        cps = sorted(t for t in set(self.checkpoints) if 1 <= t <= self.T)
        return tuple(cps)

    def grid(self) -> list[tuple]:
        """The (policy or potential, parameter label) points of the parameter grid."""
        if self.mode == "stochastic":
            return [pt for entry in self.policies for pt in expand_policy_entry(entry)]
        return [pt for entry in self.potentials for pt in expand_potential_entry(entry, self.K, self.T)]


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _number(value, name: str):
    # JSON reads 1e999 as infinity, and NaN fails every comparison.
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not -math.inf < value < math.inf:
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return value


def _expand(entry, table: dict[str, Kind], build, what: str, auto=None) -> list[tuple]:
    """Check one policy or potential entry against its kind's row of ``table``
    and build one object per value of the row's grid key.  A grid value of
    ``"auto"`` is replaced by ``auto(perturbation spec)`` when ``auto`` is given."""
    kind = entry.get("kind") if isinstance(entry, dict) else None
    if not isinstance(kind, str) or kind not in table:
        raise ValueError(f'every {what} needs a "kind" out of {list(table)}, got {entry!r}')
    row = table[kind]
    pert = entry.get("perturbation", next(iter(row.perturbations), None))
    if "perturbation" in entry and pert not in row.perturbations:
        raise ValueError(f"{what} kind {kind!r} cannot use perturbation {pert!r}, only {list(row.perturbations)}")
    make_spec, spec_key = dist.PERTURBATIONS.get(pert, (None, None))
    unknown = sorted(set(entry) - {"kind", "perturbation", spec_key, *row.keys})
    if unknown:
        with_pert = f" with perturbation {pert!r}" if pert else ""
        raise ValueError(f"unknown keys for {what} kind {kind!r}{with_pert}: {unknown}")
    params = {k: v for k, v in entry.items() if k not in ("kind", "perturbation")}
    points = [params]
    if row.grid in params:
        values = params[row.grid] if isinstance(params[row.grid], list) else [params[row.grid]]
        if not values:
            raise ValueError(f"{row.grid} must not be an empty list")
        points = [dict(params, **{row.grid: v}) for v in values]
    out = []
    for point in points:
        spec = None
        if make_spec is not None:
            spec = make_spec(*[_number(point.pop(spec_key), spec_key)] if spec_key in point else [])
        if auto is not None and entry.get(row.grid) == "auto":
            point[row.grid] = auto(spec)
        obj = build(kind=kind, spec=spec, **{k: _number(v, k) for k, v in point.items()})
        out.append((obj, row.label.format(obj)))
    return out


def expand_policy_entry(entry: dict) -> list[tuple[PolicyConfig, str]]:
    """One config dict -> list of (policy, parameter label) grid points."""
    return _expand(entry, POLICY_KINDS, PolicyConfig, "policy")


def _auto_eta(spec: dist.PerturbationSpec | None, K: int, T: int) -> float:
    if spec is None:
        raise ValueError('"auto" learning rate needs an ftpl potential')
    sup_h = dist.sup_hazard(spec)
    if isinstance(sup_h, dist.HazardInterval):
        sup_h = sup_h.estimate
    return tune_eta(K, T, sup_h, extremes.asymptotic_block_max(spec, K))


def expand_potential_entry(entry: dict, K: int, T: int) -> list[tuple[PotentialSpec, str]]:
    """One config dict -> list of (potential, parameter label) grid points.

    ``"eta": "auto"`` applies the hazard/block-maxima tuning rule; it needs a
    bounded-hazard perturbation, so it is only valid for ftpl potentials.
    """
    return _expand(entry, POTENTIAL_KINDS, PotentialSpec, "potential", auto=lambda spec: _auto_eta(spec, K, T))


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        raw = json.load(fh)
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ValueError(f"a config must be a JSON object, got {raw!r}")
    unknown = set(raw) - set(ExperimentConfig.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    mode = raw.get("mode")
    if not isinstance(mode, str) or mode not in MODES:
        raise ValueError(f"mode must be one of {list(MODES)}, got {mode!r}")
    if "seed" not in raw:
        raise ValueError('a config needs a "seed"')
    unread = set(raw) - {"mode", "seed", *MODES[mode]}
    if unread:
        raise ValueError(f"{mode} configs do not read {sorted(unread)}")
    raw = dict(raw)
    for key in ("checkpoints", "policies", "potentials", "K_list"):
        if key in raw:
            if not isinstance(raw[key], (list, tuple)):
                raise ValueError(f"{key} must be a list, got {raw[key]!r}")
            raw[key] = tuple(raw[key])
    return ExperimentConfig(**raw)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResultRow:
    """Mean average regret R(t)/t at one checkpoint for one grid point."""

    policy: str
    param: str
    t: int
    mean_avg_regret: float
    stderr: float
    episodes: int
    seed: int


@dataclass(frozen=True)
class AggregateResult:
    rows: tuple[ResultRow, ...]

    def final_rows(self) -> list[ResultRow]:
        """The last-checkpoint row of every (policy, param) series, in the
        order the series first appear."""
        return [rows[-1] for rows in self.series().values()]

    def series(self) -> dict[tuple[str, str], list[ResultRow]]:
        out: dict[tuple[str, str], list[ResultRow]] = {}
        for row in self.rows:
            out.setdefault((row.policy, row.param), []).append(row)
        for rows in out.values():
            rows.sort(key=lambda r: r.t)
        return out


def _aggregate(
    labels: list[tuple[str, str]],
    avg_regret: np.ndarray,
    checkpoints,
    episodes: int,
    seed: int,
) -> AggregateResult:
    """avg_regret has shape (n_series, n_checkpoints, episodes)."""
    rows = []
    means = avg_regret.mean(axis=2)
    if episodes > 1:
        stderrs = avg_regret.std(axis=2, ddof=1) / math.sqrt(episodes)
    else:
        stderrs = np.zeros_like(means)
    for i, (policy, param) in enumerate(labels):
        for j, t in enumerate(checkpoints):
            rows.append(
                ResultRow(
                    policy=policy,
                    param=param,
                    t=int(t),
                    mean_avg_regret=float(means[i, j]),
                    stderr=float(stderrs[i, j]),
                    episodes=episodes,
                    seed=seed,
                )
            )
    return AggregateResult(rows=tuple(rows))


# ---------------------------------------------------------------------------
# Episodes
# ---------------------------------------------------------------------------


class _DrawnTable(NamedTuple):
    """An episode's reward table, as the reward model of every policy's
    ``run_episode`` call, which ignores its reward_rng: the policies share one
    ``RewardTable``, which draws the most rows any of them reaches.  Each
    policy's episode thus stays one ``run_episode`` call, the unit that
    ``benchmarks/tracing.py`` times per policy."""

    table: dist.RewardTable

    def reward_table(self, means, n, rng) -> dist.RewardTable:
        return self.table


def _episode(config: ExperimentConfig, grid, checkpoints, episode: int) -> np.ndarray:
    """The regret of every grid point at every checkpoint in one episode.

    The seeding rule: SeedSequence([seed, episode]) spawns 2 + len(grid)
    children.  Child 0 draws the stochastic instance means and is unused in
    adversarial mode, child 1 draws the episode's one reward table, and
    child 2 + i is grid point i's generator.
    """
    children = np.random.SeedSequence([config.seed, episode]).spawn(2 + len(grid))
    out = np.empty((len(grid), len(checkpoints)))
    if config.mode == "adversarial":
        rewards = ADVERSARIES[config.adversary](config.T, config.K, children[1])
        for i, (potential, _) in enumerate(grid):
            _, arms = run_gbpa(rewards, potential, np.random.default_rng(children[2 + i]))
            out[i] = regret_at_checkpoints(rewards, arms, checkpoints)
        return out
    means = np.random.default_rng(children[0]).random(config.K)
    table = dist.RewardTable(RewardModel(config.reward_model), means, config.T, np.random.default_rng(children[1]))
    instance = BanditInstance(means=means, reward_model=_DrawnTable(table), horizon=config.T)
    for i, (policy, _) in enumerate(grid):
        trace = run_episode(
            instance,
            policy,
            reward_rng=None,
            policy_rng=np.random.default_rng(children[2 + i]),
        )
        out[i] = [trace.regret(t) for t in checkpoints]
    return out


def _episodes(config: ExperimentConfig, grid, checkpoints, episodes: range) -> list[np.ndarray]:
    return [_episode(config, grid, checkpoints, e) for e in episodes]


def run_experiment(config: ExperimentConfig, threads: int = 1) -> AggregateResult:
    """Run all grid points over all episodes and aggregate average regret.

    The episodes are dealt round-robin to min(threads, CPUs, episodes)
    processes: the calling one plays the first share and forked workers the
    others, which are stopped if the calling one's share fails.  An episode's
    streams depend only on (seed, episode), so the result does not depend on
    ``threads``.
    """
    if config.mode not in ("stochastic", "adversarial"):
        raise ValueError(f"run_experiment does not handle mode {config.mode!r}")
    checkpoints = config.effective_checkpoints()
    grid = config.grid()
    workers = min(threads, os.cpu_count() or 1, config.episodes) if hasattr(os, "fork") else 1
    shares = [range(w, config.episodes, workers) for w in range(workers)]
    if workers == 1:
        played = [_episodes(config, grid, checkpoints, shares[0])]
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # Named, as Python 3.14 changes the default: a forked worker starts with
        # the package imported, where a spawned one would import numpy again.
        before = set(multiprocessing.active_children())
        with ProcessPoolExecutor(workers - 1, mp_context=multiprocessing.get_context("fork")) as pool:
            futures = [pool.submit(_episodes, config, grid, checkpoints, share) for share in shares[1:]]
            try:
                mine = _episodes(config, grid, checkpoints, shares[0])
            except BaseException:
                # Leaving the block would wait for the workers' shares.
                for worker in set(multiprocessing.active_children()) - before:
                    worker.terminate()
                raise
            played = [mine, *(f.result() for f in futures)]
    per_episode = [played[e % workers][e // workers] for e in range(config.episodes)]
    avg = np.stack(per_episode, axis=2) / np.asarray(checkpoints, dtype=float)[:, None]
    labels = [(cfg.label(), param) for cfg, param in grid]
    return _aggregate(labels, avg, checkpoints, config.episodes, config.seed)


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSearchEntry:
    policy: str
    best_param: str
    mean_avg_regret: float
    stderr: float
    tied_within_stderr: tuple[str, ...]


@dataclass(frozen=True)
class GridSearchResult:
    best: tuple[GridSearchEntry, ...]
    all_results: AggregateResult


def grid_search(config: ExperimentConfig, threads: int = 1) -> GridSearchResult:
    """Exhaustive evaluation on ``threads`` as in ``run_experiment``; argmin
    of final mean R(T)/T per policy, ties resolved to the grid point listed
    first (grids should be ascending).  Other parameters within one combined
    stderr of the winner are reported."""
    result = run_experiment(config, threads)
    finals: dict[str, list[ResultRow]] = {}
    for row in result.final_rows():
        finals.setdefault(row.policy, []).append(row)
    best = []
    for policy, rows in finals.items():
        winner = min(rows, key=lambda r: r.mean_avg_regret)
        ties = tuple(
            r.param
            for r in rows
            if r.param != winner.param
            and r.mean_avg_regret - winner.mean_avg_regret <= r.stderr + winner.stderr
        )
        best.append(
            GridSearchEntry(
                policy=policy,
                best_param=winner.param,
                mean_avg_regret=winner.mean_avg_regret,
                stderr=winner.stderr,
                tied_within_stderr=ties,
            )
        )
    return GridSearchResult(best=tuple(best), all_results=result)


# ---------------------------------------------------------------------------
# CSV / SVG emission
# ---------------------------------------------------------------------------


def emit_csv(result: AggregateResult, path) -> None:
    """Write the aggregate as CSV with full-precision floats."""
    if not result.rows:
        raise ValueError("refusing to write an empty result")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for r in result.rows:
            writer.writerow([r.policy, r.param, r.t, repr(r.mean_avg_regret), repr(r.stderr), r.episodes, r.seed])


_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f")


def emit_svg_lineplot(result: AggregateResult, path) -> None:
    """Average-regret line plot: one polyline per (policy, param) series."""
    series = result.series()
    if not series:
        raise ValueError("refusing to plot an empty result")
    width, height = 800, 500
    left, right, top, bottom = 70, 180, 30, 50
    pw, ph = width - left - right, height - top - bottom
    ts = sorted({r.t for rows in series.values() for r in rows})
    ys = [r.mean_avg_regret for rows in series.values() for r in rows]
    t_lo, t_hi = min(ts), max(ts)
    y_lo, y_hi = min(0.0, min(ys)), max(ys) or 1.0
    if t_hi == t_lo:
        t_hi = t_lo + 1
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(t: float) -> float:
        return left + pw * (t - t_lo) / (t_hi - t_lo)

    def sy(y: float) -> float:
        return top + ph * (1.0 - (y - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{top + ph}" x2="{left + pw}" y2="{top + ph}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + ph}" stroke="black"/>',
        f'<text x="{left + pw / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-size="14">t</text>',
        f'<text x="18" y="{top + ph / 2:.1f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {top + ph / 2:.1f})">R(t)/t</text>',
    ]
    for t in ts:
        parts.append(
            f'<text x="{sx(t):.1f}" y="{top + ph + 18}" text-anchor="middle" font-size="11">{t}</text>'
        )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = y_lo + frac * (y_hi - y_lo)
        parts.append(
            f'<text x="{left - 6}" y="{sy(y) + 4:.1f}" text-anchor="end" font-size="11">{y:.3g}</text>'
        )
    for i, ((policy, param), rows) in enumerate(sorted(series.items())):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(f"{sx(r.t):.2f},{sy(r.mean_avg_regret):.2f}" for r in rows)
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"/>')
        label = html.escape(f"{policy} {param}".strip(), quote=False)
        ly = top + 16 * (i + 1)
        parts.append(f'<line x1="{left + pw + 10}" y1="{ly - 4}" x2="{left + pw + 30}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{left + pw + 36}" y="{ly}" font-size="11">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# Verification modes
# ---------------------------------------------------------------------------


def run_evt_mode(config: ExperimentConfig, out_csv) -> list[extremes.BlockMaxReport]:
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0]))
    reports = extremes.verify_table1(list(config.K_list), config.n_blocks, rng)
    extremes.reports_to_csv(reports, out_csv)
    return reports


def run_theory_mode(config: ExperimentConfig, out_txt):
    rows = run_theory_checks(seed=config.seed)
    with open(out_txt, "w") as fh:
        fh.write(rows_to_text(rows))
    return rows
