"""Output checks for the benchmark workloads.

Every check compares a program output with a quantity computed here, apart
from the program (instance means re-derived from the seeding rule, exact
block-maximum moments, the GBPA regret bound), or with a property the method
must have (cumulative regret never falls).  No check compares with a stored
copy of an earlier output.

Each checker returns a fixed list of ``(name, ok, detail)`` triples, one per
check, whatever the output holds, so that every benchmark round attempts the
same number of checks.
"""
from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
from scipy import integrate, special, stats

EULER_GAMMA = float(np.euler_gamma)

# Agreement band for block-maximum means, in standard errors (see README.md).
EVT_BAND_Z = 5.0
# Probability that a correct tail-index-2 row falls below its lower band.
EVT_LOWER_DELTA = 1e-7
# The program's stderr for a finite-variance row must match sd/sqrt(n) to this share.
EVT_STDERR_REL = 0.05
# "Clearly below uniform play": the final R(T)/T is at most this share of it.
UNIFORM_SHARE = 0.8

# Rows of ``theory-check``: 2 barrier witnesses, 5 sign-change alphas, 1
# finite-difference probe, 10 two-arm trials, 3 Jacobian checks, 2 two-arm
# CDF checks, 2 tail criteria, 1 monotone tail, 1 logistic tail, 1 Gumbel vs
# softmax.
THEORY_ROWS = 2 + 5 + 1 + 10 + 3 + 2 + 2 + 1 + 1 + 1

STOCHASTIC_CHECKS = ("shape", "finite", "monotone", "gap_bound", "below_uniform")
ADVERSARIAL_CHECKS = ("shape", "unit_range", "integral", "monotone", "ftpl_bound")
EVT_ROWS = ("gumbel(0,1)", "gamma(2)", "weibull(1)", "frechet(2)", "pareto(2)")


def _failed(prefix: str, names, detail: str) -> list[tuple[str, bool, str]]:
    return [(f"{prefix}.{name}", False, detail) for name in names]


def read_regret_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _series(rows: list[dict]) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(t, R(t)/t, stderr) arrays per (policy, param) series, in first-seen order."""
    grouped: dict[tuple[str, str], list[dict]] = {}
    for row in rows:
        grouped.setdefault((row["policy"], row["param"]), []).append(row)
    out = []
    for group in grouped.values():
        group.sort(key=lambda r: int(r["t"]))
        out.append(
            (
                np.array([int(r["t"]) for r in group]),
                np.array([float(r["mean_avg_regret"]) for r in group]),
                np.array([float(r["stderr"]) for r in group]),
            )
        )
    return out


def _shape_ok(rows: list[dict], series, config: dict, grid_points: int) -> tuple[bool, str]:
    checkpoints = sorted(config["checkpoints"])
    if len(rows) != grid_points * len(checkpoints) or len(series) != grid_points:
        return False, f"{len(rows)} rows in {len(series)} series, expected {grid_points} x {len(checkpoints)}"
    if any(list(t) != checkpoints for t, _, _ in series):
        return False, "a series does not have exactly the configured checkpoints"
    try:
        bad = [r for r in rows if int(r["episodes"]) != config["episodes"] or int(r["seed"]) != config["seed"]]
    except (KeyError, ValueError) as exc:
        return False, f"unreadable episodes/seed column: {exc}"
    if bad:
        return False, f"{len(bad)} rows with episodes/seed other than {config['episodes']}/{config['seed']}"
    return True, ""


def _monotone_ok(series) -> tuple[bool, str]:
    for t, avg, _ in series:
        cumulative = t * avg
        if np.any(np.diff(cumulative) < -1e-9 * cumulative[1:]):
            return False, f"cumulative regret falls: {cumulative.tolist()}"
    return True, ""


def instance_means(seed: int, episode: int, K: int) -> np.ndarray:
    """Arm means of one stochastic episode, from the documented seeding rule:
    the first child of SeedSequence([seed, episode]) draws them uniformly."""
    child = np.random.SeedSequence([seed, episode]).spawn(1)[0]
    return np.random.default_rng(child).random(K)


def check_stochastic(path: Path, config: dict) -> list[tuple[str, bool, str]]:
    """Checks of a ``stochastic_regret.csv`` written from ``config``."""
    try:
        rows = read_regret_csv(path)
        series = _series(rows)
    except (OSError, KeyError, ValueError) as exc:
        return _failed("stochastic", STOCHASTIC_CHECKS, f"unreadable output: {exc}")
    means = [instance_means(config["seed"], e, config["K"]) for e in range(config["episodes"])]
    largest_gap = float(np.mean([m.max() - m.min() for m in means]))
    uniform = float(np.mean([m.max() - m.mean() for m in means]))
    values = np.concatenate([avg for _, avg, _ in series]) if series else np.empty(0)
    results = [("stochastic.shape", *_shape_ok(rows, series, config, len(config["policies"])))]
    finite = bool(values.size) and all(np.all(np.isfinite(avg)) and np.all(np.isfinite(se)) for _, avg, se in series)
    results.append(("stochastic.finite", finite, "" if finite else "a value is not finite"))
    results.append(("stochastic.monotone", *_monotone_ok(series)))
    in_range = bool(values.size) and values.min() >= 0.0 and values.max() <= largest_gap * (1 + 1e-12)
    results.append(
        (
            "stochastic.gap_bound",
            bool(in_range),
            "" if in_range else f"R(t)/t spans [{values.min():.4g}, {values.max():.4g}], mean largest gap {largest_gap:.4g}",
        )
    )
    finals = [float(avg[-1]) for _, avg, _ in series]
    below = bool(finals) and max(finals) <= UNIFORM_SHARE * uniform
    results.append(
        (
            "stochastic.below_uniform",
            below,
            "" if below else f"final R(T)/T {finals} not below {UNIFORM_SHARE} x uniform-play regret {uniform:.4g}",
        )
    )
    return results


def gbpa_bound(K: int, T: int) -> float:
    """2 sqrt(K T sup_h E[M_K]) for FTPL-Gumbel: sup_h = 1 and E[M_K] = log K + gamma."""
    return 2.0 * math.sqrt(K * T * 1.0 * (math.log(K) + EULER_GAMMA))


def check_adversarial(path: Path, config: dict) -> list[tuple[str, bool, str]]:
    """Checks of an ``adversarial_regret.csv`` for 0/1 rewards; the first
    configured potential must be FTPL with Gumbel perturbations."""
    try:
        rows = read_regret_csv(path)
        series = _series(rows)
    except (OSError, KeyError, ValueError) as exc:
        return _failed("adversarial", ADVERSARIAL_CHECKS, f"unreadable output: {exc}")
    E = config["episodes"]
    results = [("adversarial.shape", *_shape_ok(rows, series, config, len(config["potentials"])))]
    values = np.concatenate([avg for _, avg, _ in series]) if series else np.empty(0)
    in_unit = bool(values.size) and bool(np.all(np.isfinite(values)) and values.min() >= 0.0 and values.max() <= 1.0)
    results.append(("adversarial.unit_range", in_unit, "" if in_unit else "R(t)/t outside [0, 1]"))
    totals = np.concatenate([E * t * avg for t, avg, _ in series]) if series else np.empty(0)
    integral = bool(totals.size) and bool(np.all(np.abs(totals - np.round(totals)) <= 1e-6 * np.maximum(1.0, totals)))
    results.append(("adversarial.integral", integral, "" if integral else "episodes * R(t) is not a whole number"))
    results.append(("adversarial.monotone", *_monotone_ok(series)))
    bound = gbpa_bound(config["K"], config["T"])
    if series:
        t, avg, _ = series[0]
        final = float(t[-1] * avg[-1])
        ok = final <= bound
        detail = "" if ok else f"FTPL-Gumbel R(T) = {final:.1f} above {bound:.1f}"
    else:
        ok, detail = False, "no series"
    results.append(("adversarial.ftpl_bound", ok, detail))
    return results


def exact_block_max(label: str, K: int) -> tuple[float, float]:
    """Exact mean and variance of the maximum of K draws, as the program
    parameterizes each table distribution; the variance is inf where it
    does not exist (tail index 2)."""
    if label == "gumbel(0,1)":
        # The maximum of K standard Gumbels is Gumbel(log K, 1).
        return math.log(K) + EULER_GAMMA, math.pi**2 / 6.0
    if label == "weibull(1)":
        # Shifted Weibull(1) is Exp(1); its maximum has mean H_K, variance sum 1/i^2.
        return float(special.digamma(K + 1) + EULER_GAMMA), float(special.polygamma(1, 1) - special.polygamma(1, K + 1))
    if label == "frechet(2)":
        return K**0.5 * math.gamma(0.5), math.inf
    if label == "pareto(2)":
        # (1 - U)^(-1/2) - 1: E[max] = K B(K, 1/2) - 1.
        return K * math.exp(special.betaln(K, 0.5)) - 1.0, math.inf
    if label == "gamma(2)":
        def tail(x: float) -> float:  # P(max > x) = 1 - F(x)^K
            return -math.expm1(K * math.log1p(-stats.gamma.sf(x, 2.0)))

        split = math.log(K) + math.log(math.log(K)) + 10.0
        m1 = sum(integrate.quad(tail, lo, hi, limit=200)[0] for lo, hi in ((0.0, split), (split, math.inf)))
        m2 = sum(
            integrate.quad(lambda x: 2.0 * x * tail(x), lo, hi, limit=200)[0]
            for lo, hi in ((0.0, split), (split, math.inf))
        )
        return m1, m2 - m1 * m1
    raise KeyError(label)


def _heavy_tail(label: str, K: int):
    """P(max > x) for the tail-index-2 rows."""
    if label == "frechet(2)":
        return lambda x: -math.expm1(-K / (x * x))
    return lambda x: -math.expm1(K * math.log1p(-((1.0 + x) ** -2)))  # pareto(2)


def heavy_lower_band(label: str, K: int, n_blocks: int) -> float:
    """How far below the exact mean a correct sample mean of n_blocks
    nonnegative maxima falls with probability at most EVT_LOWER_DELTA.

    With Y = min(M, c): mean(M) >= mean(Y), E[Y] = E[M] - E[(M - c)+], and
    for nonnegative Y, P(mean(Y) <= E[Y] - e) <= exp(-n e^2 / (2 E[Y^2]))
    (Maurer 2003).  The truncation level is c = sqrt(n K).
    """
    tail = _heavy_tail(label, K)
    c = math.sqrt(n_blocks * K)
    knee = 4.0 * math.sqrt(K)
    excess = integrate.quad(tail, c, math.inf, limit=200)[0]
    second = sum(integrate.quad(lambda x: 2.0 * x * tail(x), lo, hi, limit=200)[0] for lo, hi in ((0.0, knee), (knee, c)))
    return excess + math.sqrt(2.0 * second * math.log(1.0 / EVT_LOWER_DELTA) / n_blocks)


def evt_row_ok(label: str, K: int, n_blocks: int, mc: float, stderr: float) -> tuple[bool, str]:
    """One table row against its exact mean (the bands are justified in README.md).

    Finite-variance rows: |mc - exact| <= z sd / sqrt(n), with sd exact, and
    the program's stderr within EVT_STDERR_REL of sd / sqrt(n).  Tail-index-2
    rows have no sd: above the mean the band is z times the program's own
    stderr, which a large draw raises together with mc; below it is
    ``heavy_lower_band``.
    """
    try:
        mean, var = exact_block_max(label, K)
    except KeyError:
        return False, f"no exact moments for {label}"
    if math.isfinite(var):
        se = math.sqrt(var / n_blocks)
        if abs(stderr / se - 1.0) > EVT_STDERR_REL:
            return False, f"{label}: stderr {stderr:.4g} against exact {se:.4g}"
        below = above = EVT_BAND_Z * se
    else:
        below, above = heavy_lower_band(label, K, n_blocks), EVT_BAND_Z * stderr
    if not (stderr > 0.0 and -below <= mc - mean <= above):
        return False, f"{label}: mc {mc:.5g} against exact {mean:.5g}, band -{below:.3g}/+{above:.3g}"
    return True, ""


def check_evt(path: Path, config: dict, exit_code: int) -> list[tuple[str, bool, str]]:
    """Checks of ``evt_table.csv``: the command passed all rows, and every
    row agrees with its exact block-maximum mean."""
    K_list = config["K_list"]
    names = ["passed"] + [f"{label}.K{K}" for label in EVT_ROWS for K in K_list]
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        parsed = {(r["params"], int(r["K"])): (float(r["mc"]), float(r["stderr"])) for r in rows}
        flags = [r["pass"] for r in rows]
    except (OSError, KeyError, ValueError) as exc:
        return _failed("evt", names, f"unreadable output: {exc}")
    all_pass = exit_code == 0 and len(rows) == len(EVT_ROWS) * len(K_list) and all(f == "1" for f in flags)
    results = [("evt.passed", all_pass, "" if all_pass else f"exit {exit_code}, {len(rows)} rows, pass flags not all 1")]
    for label in EVT_ROWS:
        for K in K_list:
            if (label, K) not in parsed:
                results.append((f"evt.{label}.K{K}", False, "row missing"))
                continue
            mc, se = parsed[(label, K)]
            results.append((f"evt.{label}.K{K}", *evt_row_ok(label, K, config["n_blocks"], mc, se)))
    return results


def check_theory(path: Path, exit_code: int) -> list[tuple[str, bool, str]]:
    """``theory-check`` exits 0 with every row PASS and the expected row count."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        return [("theory.rows", False, f"unreadable output: {exc}")]
    passed = [line for line in lines if line.startswith("PASS ")]
    ok = exit_code == 0 and len(lines) == THEORY_ROWS and len(passed) == THEORY_ROWS
    return [("theory.rows", ok, "" if ok else f"exit {exit_code}, {len(passed)} of {len(lines)} PASS, expected {THEORY_ROWS}")]
