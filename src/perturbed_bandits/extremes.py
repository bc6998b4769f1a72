"""Expected block maxima: Monte-Carlo estimates against their extreme-value
asymptotics C * a_K + b_K, with the closed-form normalizing constants for the
five bounded-hazard perturbations."""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from .distributions import PerturbationSpec

EULER_GAMMA = float(np.euler_gamma)

# Draws per chunk of blocks whose maxima are summed at once; the grouping
# fixes the sums' rounding, so it is part of every estimate's bits.
_CHUNK = 20_000_000

GUMBEL_TYPE = "gumbel-type"
FRECHET_TYPE = "frechet-type"


@dataclass(frozen=True)
class BlockMaxReport:
    """One (distribution, block size) row of the verification table."""

    spec: PerturbationSpec
    block_size: int
    mc_estimate: float
    mc_stderr: float
    asymptotic: float
    a_k: float
    b_k: float
    evt_type: str
    tolerance: float
    passed: bool


def mc_expected_block_max(
    spec: PerturbationSpec, K: int, n_blocks: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Sample mean and standard error of max over K i.i.d. draws.

    The maxima come from :func:`distributions.sample_block_max`; for the
    inverse-CDF kinds that is the maximum of the raw uniforms, mapped
    through the quantile once per block.  Memory stays at 2^18 draws (2 MiB)
    plus one float per block of a chunk of ``_CHUNK // K`` blocks, whose
    maxima are summed together.
    """
    if K < 1:
        raise ValueError("block size must be >= 1")
    if n_blocks < 100:
        raise ValueError("need at least 100 blocks for a standard error")
    total = 0.0
    total_sq = 0.0
    chunk = max(1, _CHUNK // K)
    for done in range(0, n_blocks, chunk):
        maxima = dist.sample_block_max(spec, rng, min(chunk, n_blocks - done), K)
        total += float(maxima.sum())
        total_sq += float(np.square(maxima).sum())
    mean = total / n_blocks
    var = max(total_sq / n_blocks - mean * mean, 0.0)
    return mean, math.sqrt(var / n_blocks)


def normalizing_constants(spec: PerturbationSpec, K: int) -> tuple[float, float, str]:
    """Closed-form (a_K, b_K, type) so that F^K(a_K z + b_K) converges to the
    extreme value law of the matching type."""
    if K < 2:
        raise ValueError("block size must be >= 2 for normalizing constants")
    kind = spec.kind
    log_k = math.log(K)
    if kind == dist.GUMBEL:
        y = -math.log1p(-1.0 / K)
        b = -math.log(y)
        a = math.expm1(y) / y
        return a, b, GUMBEL_TYPE
    if kind == dist.GAMMA:
        b = log_k + (spec.alpha - 1.0) * math.log(log_k) - math.lgamma(spec.alpha)
        return 1.0, b, GUMBEL_TYPE
    if kind == dist.WEIBULL:
        if spec.alpha > 1.0:
            raise ValueError("weibull constants are only used for alpha <= 1")
        b = (1.0 + log_k) ** (1.0 / spec.alpha) - 1.0
        a = log_k ** (1.0 / spec.alpha - 1.0) / spec.alpha
        return a, b, GUMBEL_TYPE
    if kind == dist.FRECHET:
        a = (-math.log1p(-1.0 / K)) ** (-1.0 / spec.alpha)
        return a, 0.0, FRECHET_TYPE
    if kind == dist.PARETO:
        if spec.alpha <= 1.0:
            raise ValueError("pareto block maxima need alpha > 1 for a finite mean")
        a = K ** (1.0 / spec.alpha) - 1.0
        return a, 0.0, FRECHET_TYPE
    raise ValueError(f"no extreme-value constants for {kind}")


def asymptotic_block_max(spec: PerturbationSpec, K: int) -> float:
    """C * a_K + b_K with C the mean of the limiting extreme value law:
    the Euler-Mascheroni constant for Gumbel-type, Gamma(1 - 1/alpha) for
    Frechet-type."""
    a, b, evt_type = normalizing_constants(spec, K)
    if evt_type == GUMBEL_TYPE:
        return EULER_GAMMA * a + b
    return math.gamma(1.0 - 1.0 / spec.alpha) * a + b


# The distributions of the verification table, one row block each.
TABLE_SPECS = (dist.gumbel(), dist.gamma(2.0), dist.weibull(1.0), dist.frechet(2.0), dist.pareto(2.0))


def tolerance_for(spec: PerturbationSpec) -> float:
    # Gamma's b_K carries an o(log K) error term, so it gets a looser band.
    return 0.10 if spec.kind == dist.GAMMA else 0.05


def verify_table1(K_list, n_blocks: int, rng: np.random.Generator) -> list[BlockMaxReport]:
    """Monte-Carlo block maxima against the asymptotic table for every
    (distribution, K) pair; a row passes when |mc - asymptotic| is within
    max(tolerance * |asymptotic|, 3 * stderr)."""
    if not K_list:
        raise ValueError("K_list must be nonempty")
    reports = []
    for spec in TABLE_SPECS:
        tol = tolerance_for(spec)
        for K in K_list:
            est, se = mc_expected_block_max(spec, K, n_blocks, rng)
            a, b, evt_type = normalizing_constants(spec, K)
            asym = asymptotic_block_max(spec, K)
            ok = abs(est - asym) <= max(tol * abs(asym), 3.0 * se)
            reports.append(
                BlockMaxReport(
                    spec=spec,
                    block_size=K,
                    mc_estimate=est,
                    mc_stderr=se,
                    asymptotic=asym,
                    a_k=a,
                    b_k=b,
                    evt_type=evt_type,
                    tolerance=tol,
                    passed=ok,
                )
            )
    return reports


def reports_to_csv(reports: list[BlockMaxReport], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["distribution", "params", "K", "mc", "stderr", "asymptotic", "a_K", "b_K", "type", "pass"]
        )
        for r in reports:
            writer.writerow(
                [
                    r.spec.kind,
                    r.spec.label(),
                    r.block_size,
                    repr(r.mc_estimate),
                    repr(r.mc_stderr),
                    repr(r.asymptotic),
                    repr(r.a_k),
                    repr(r.b_k),
                    r.evt_type,
                    int(r.passed),
                ]
            )
