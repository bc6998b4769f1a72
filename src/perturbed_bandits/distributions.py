"""Perturbation and reward distributions.

Every distribution used by the bandit algorithms lives here: seeded sampling,
closed-form CDF/PDF/quantile, hazard rates, and sub-Weibull tail metadata.
Weibull and Pareto use the shifted forms F(x) = 1 - exp(1 - (1+x)^a) and
F(x) = 1 - (1+x)^(-a) on x >= 0, so the block-maxima normalizing constants
come out with clean closed forms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import special

GAUSSIAN = "gaussian"
UNIFORM = "uniform"
RADEMACHER = "rademacher"
DOUBLE_EXPONENTIAL = "double_exponential"
GUMBEL = "gumbel"
GAMMA = "gamma"
WEIBULL = "weibull"
FRECHET = "frechet"
PARETO = "pareto"

_KINDS = {
    GAUSSIAN,
    UNIFORM,
    RADEMACHER,
    DOUBLE_EXPONENTIAL,
    GUMBEL,
    GAMMA,
    WEIBULL,
    FRECHET,
    PARETO,
}
_BOUNDED_KINDS = {UNIFORM, RADEMACHER}
# Distributions with a bounded hazard rate (hazard supremum is well defined).
_BOUNDED_HAZARD_KINDS = {GUMBEL, GAMMA, WEIBULL, FRECHET, PARETO}


@dataclass(frozen=True)
class PerturbationSpec:
    """A named perturbation distribution with its parameters.

    ``sigma`` scales Gaussian and double-exponential, ``mu``/``beta`` locate and
    scale Gumbel, and ``alpha`` is the shape of Gamma, Weibull, Frechet and
    Pareto.  Parameters are validated at construction so sampling never fails.
    """

    kind: str
    sigma: float = 1.0
    mu: float = 0.0
    beta: float = 1.0
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown perturbation kind: {self.kind!r}")
        if self.kind in (GAUSSIAN, DOUBLE_EXPONENTIAL) and not self.sigma > 0:
            raise ValueError(f"{self.kind} requires sigma > 0, got {self.sigma}")
        if self.kind == GUMBEL and not self.beta > 0:
            raise ValueError(f"gumbel requires beta > 0, got {self.beta}")
        if self.kind in (GAMMA, WEIBULL, PARETO) and not self.alpha > 0:
            raise ValueError(f"{self.kind} requires alpha > 0, got {self.alpha}")
        if self.kind == FRECHET and not self.alpha > 1:
            # alpha <= 1 has no finite mean, so block maxima and tuning break down.
            raise ValueError(f"frechet requires alpha > 1, got {self.alpha}")

    @property
    def bounded_support(self) -> bool:
        return self.kind in _BOUNDED_KINDS

    def label(self) -> str:
        if self.kind in (GAUSSIAN, DOUBLE_EXPONENTIAL):
            return f"{self.kind}({self.sigma:g})"
        if self.kind == GUMBEL:
            return f"gumbel({self.mu:g},{self.beta:g})"
        if self.kind in (GAMMA, WEIBULL, FRECHET, PARETO):
            return f"{self.kind}({self.alpha:g})"
        return self.kind


def gaussian(sigma: float = 1.0) -> PerturbationSpec:
    return PerturbationSpec(GAUSSIAN, sigma=sigma)


def uniform() -> PerturbationSpec:
    return PerturbationSpec(UNIFORM)


def rademacher() -> PerturbationSpec:
    return PerturbationSpec(RADEMACHER)


def double_exponential(sigma: float = 1.0) -> PerturbationSpec:
    return PerturbationSpec(DOUBLE_EXPONENTIAL, sigma=sigma)


def gumbel(mu: float = 0.0, beta: float = 1.0) -> PerturbationSpec:
    return PerturbationSpec(GUMBEL, mu=mu, beta=beta)


def gamma(alpha: float = 2.0) -> PerturbationSpec:
    return PerturbationSpec(GAMMA, alpha=alpha)


def weibull(alpha: float = 1.0) -> PerturbationSpec:
    return PerturbationSpec(WEIBULL, alpha=alpha)


def frechet(alpha: float = 2.0) -> PerturbationSpec:
    return PerturbationSpec(FRECHET, alpha=alpha)


def pareto(alpha: float = 2.0) -> PerturbationSpec:
    return PerturbationSpec(PARETO, alpha=alpha)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample_array(spec: PerturbationSpec, rng: np.random.Generator, shape) -> np.ndarray:
    """Draw i.i.d. samples with the given shape.

    Gumbel, Weibull, Frechet and Pareto are drawn by inverse CDF so a single
    uniform stream drives them; Gaussian, Laplace and Gamma use the generator's
    native samplers.  Deterministic given the generator state.
    """
    kind = spec.kind
    if kind == GAUSSIAN:
        return rng.standard_normal(shape) * spec.sigma
    if kind == UNIFORM:
        return rng.uniform(-1.0, 1.0, shape)
    if kind == RADEMACHER:
        return np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    if kind == DOUBLE_EXPONENTIAL:
        return rng.laplace(0.0, spec.sigma, shape)
    if kind == GAMMA:
        return rng.standard_gamma(spec.alpha, shape)
    return _inverse_cdf(spec, rng.random(shape))


def _inverse_cdf(spec: PerturbationSpec, u):
    """The Gumbel, Weibull, Frechet or Pareto quantile at ``u`` in [0, 1)."""
    kind = spec.kind
    if kind == GUMBEL:
        return spec.mu - spec.beta * np.log(-np.log1p(u - 1.0))
    if kind == WEIBULL:
        return (1.0 - np.log1p(-u)) ** (1.0 / spec.alpha) - 1.0
    if kind == FRECHET:
        return (-np.log1p(u - 1.0)) ** (-1.0 / spec.alpha)
    if kind == PARETO:
        return (1.0 - u) ** (-1.0 / spec.alpha) - 1.0
    raise AssertionError(kind)


# ---------------------------------------------------------------------------
# CDF / PDF / quantile / survival
# ---------------------------------------------------------------------------


def cdf(spec: PerturbationSpec, x):
    """1 - survival, so it loses relative accuracy where the CDF itself is tiny."""
    return 1.0 - survival(spec, x)


def survival(spec: PerturbationSpec, x):
    """P(Z > x), computed without cancellation in the far upper tail."""
    x = np.asarray(x, dtype=float)
    kind = spec.kind
    if kind == GAUSSIAN:
        out = special.ndtr(-x / spec.sigma)
    elif kind == UNIFORM:
        out = np.clip((1.0 - x) / 2.0, 0.0, 1.0)
    elif kind == RADEMACHER:
        out = np.where(x < -1.0, 1.0, np.where(x < 1.0, 0.5, 0.0))
    elif kind == DOUBLE_EXPONENTIAL:
        half = 0.5 * np.exp(-np.abs(x / spec.sigma))
        out = np.where(x < 0, 1.0 - half, half)
    elif kind == GUMBEL:
        out = -np.expm1(-np.exp(-(x - spec.mu) / spec.beta))
    elif kind == GAMMA:
        out = np.where(x > 0, special.gammaincc(spec.alpha, np.maximum(x, 0.0)), 1.0)
    elif kind == WEIBULL:
        out = np.where(x >= 0, np.exp(1.0 - (1.0 + np.maximum(x, 0.0)) ** spec.alpha), 1.0)
    elif kind == FRECHET:
        with np.errstate(divide="ignore"):
            out = np.where(x > 0, -np.expm1(-np.maximum(x, 1e-300) ** (-spec.alpha)), 1.0)
    elif kind == PARETO:
        out = np.where(x >= 0, np.exp(-spec.alpha * np.log1p(np.maximum(x, 0.0))), 1.0)
    else:
        raise AssertionError(kind)
    return out if out.ndim else float(out)


def pdf(spec: PerturbationSpec, x):
    x = np.asarray(x, dtype=float)
    kind = spec.kind
    if kind == RADEMACHER:
        raise ValueError("rademacher has no density (two-point support)")
    if kind == GAUSSIAN:
        z = x / spec.sigma
        out = np.exp(-0.5 * z * z) / (spec.sigma * math.sqrt(2.0 * math.pi))
    elif kind == UNIFORM:
        out = np.where((x >= -1.0) & (x <= 1.0), 0.5, 0.0)
    elif kind == DOUBLE_EXPONENTIAL:
        out = np.exp(-np.abs(x) / spec.sigma) / (2.0 * spec.sigma)
    elif kind == GUMBEL:
        z = (x - spec.mu) / spec.beta
        out = np.exp(-z - np.exp(-z)) / spec.beta
    elif kind == GAMMA:
        xm = np.maximum(x, 1e-300)
        out = np.where(
            x > 0,
            np.exp((spec.alpha - 1.0) * np.log(xm) - xm - special.gammaln(spec.alpha)),
            0.0,
        )
    elif kind == WEIBULL:
        xp = 1.0 + np.maximum(x, 0.0)
        out = np.where(x >= 0, spec.alpha * xp ** (spec.alpha - 1.0) * survival(spec, x), 0.0)
    elif kind == FRECHET:
        xm = np.maximum(x, 1e-300)
        out = np.where(x > 0, spec.alpha * xm ** (-spec.alpha - 1.0) * np.exp(-(xm ** (-spec.alpha))), 0.0)
    elif kind == PARETO:
        out = np.where(x >= 0, spec.alpha * (1.0 + np.maximum(x, 0.0)) ** (-spec.alpha - 1.0), 0.0)
    else:
        raise AssertionError(kind)
    return out if out.ndim else float(out)


def quantile(spec: PerturbationSpec, u):
    """Inverse CDF on (0, 1); the Gumbel and Frechet tails below u ~ 1e-8 lose digits to log1p(u - 1)."""
    u_arr = np.asarray(u, dtype=float)
    if np.any((u_arr <= 0.0) | (u_arr >= 1.0)):
        raise ValueError("quantile argument must lie in the open interval (0, 1)")
    kind = spec.kind
    if kind == GAUSSIAN:
        out = special.ndtri(u_arr) * spec.sigma
    elif kind == UNIFORM:
        out = 2.0 * u_arr - 1.0
    elif kind == RADEMACHER:
        out = np.where(u_arr <= 0.5, -1.0, 1.0)
    elif kind == DOUBLE_EXPONENTIAL:
        out = np.where(
            u_arr < 0.5,
            spec.sigma * np.log(2.0 * u_arr),
            -spec.sigma * np.log(2.0 * (1.0 - u_arr)),
        )
    elif kind == GAMMA:
        out = special.gammaincinv(spec.alpha, u_arr)
    else:
        out = _inverse_cdf(spec, u_arr)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Hazard rate
# ---------------------------------------------------------------------------


class HazardInterval(NamedTuple):
    """Analytic bracket for a hazard supremum plus a grid-search estimate."""

    lower: float
    upper: float
    estimate: float


def hazard(spec: PerturbationSpec, x):
    """Hazard rate f(x) / (1 - F(x)); defined where the density is positive."""
    dens = np.asarray(pdf(spec, x), dtype=float)
    surv = np.asarray(survival(spec, x), dtype=float)
    if np.any(surv <= 0.0):
        raise ValueError("hazard undefined where the CDF equals 1")
    if np.any(dens <= 0.0):
        raise ValueError("hazard undefined where the density vanishes")
    out = dens / surv
    return out if out.ndim else float(out)


def sup_hazard(spec: PerturbationSpec):
    """Supremum of the hazard rate.

    Returns a float where a closed form exists.  The Frechet hazard has no
    closed-form supremum; a :class:`HazardInterval` bracketing it, together
    with a geometric-grid estimate, is returned instead.
    """
    kind = spec.kind
    if kind not in _BOUNDED_HAZARD_KINDS:
        raise ValueError(f"{kind} is not in the bounded-hazard catalogue")
    if kind == GUMBEL:
        # h increases monotonically to its supremum 1/beta.
        return 1.0 / spec.beta
    if kind == GAMMA:
        if spec.alpha < 1.0:
            raise ValueError("gamma hazard is unbounded near 0 for alpha < 1")
        return 1.0
    if kind == WEIBULL:
        if spec.alpha > 1.0:
            raise ValueError("weibull hazard is unbounded for alpha > 1")
        return spec.alpha
    if kind == PARETO:
        return spec.alpha
    # Frechet: sup lies in (alpha/(e-1), 2*alpha); hazard decays polynomially
    # away from the mode, so a geometric grid near the origin captures it.
    # The density underflows to 0 close to the origin; those points are
    # nowhere near the supremum and are skipped.
    a = spec.alpha
    grid = np.geomspace(1e-3, 50.0, 10_000)
    grid = grid[np.asarray(pdf(spec, grid)) > 0.0]
    est = float(np.max(hazard(spec, grid)))
    return HazardInterval(lower=a / (math.e - 1.0), upper=2.0 * a, estimate=est)


# ---------------------------------------------------------------------------
# Sub-Weibull tail metadata
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailMetadata:
    """Two-sided tail description: P(|Z| >= t) <= c_a exp(-t^p / 2 sigma^p)
    and P(|Z| >= t) >= exp(-t^q / 2 sigma^q) / c_b."""

    p: float
    q: float
    sigma: float
    c_a: float
    c_b: float

    def __post_init__(self) -> None:
        if not (self.p <= self.q <= 2.0):
            raise ValueError(f"need p <= q <= 2, got p={self.p}, q={self.q}")
        if self.q == 2.0 and self.sigma < 1.0:
            raise ValueError("q = 2 requires sigma >= 1")
        if self.c_a < 1.0 or self.c_b < 1.0:
            raise ValueError("tail constants must be >= 1")

    def upper_bound(self, t):
        return self.c_a * np.exp(-np.asarray(t, dtype=float) ** self.p / (2.0 * self.sigma**self.p))

    def lower_bound(self, t):
        return np.exp(-np.asarray(t, dtype=float) ** self.q / (2.0 * self.sigma**self.q)) / self.c_b


def tail_metadata(spec: PerturbationSpec) -> TailMetadata:
    """Validated sub-Weibull constants for the perturbations the stochastic
    algorithm supports (Gaussian and double-exponential)."""
    if spec.kind == GAUSSIAN:
        if spec.sigma < 1.0:
            raise ValueError("gaussian tail metadata needs sigma >= 1 (q = 2)")
        # c_b = 7 makes the anti-concentration bound hold out to t = 4*sigma;
        # the Gaussian lower tail loses a factor ~t against exp(-t^2/2).
        return TailMetadata(p=2.0, q=2.0, sigma=spec.sigma, c_a=2.0, c_b=7.0)
    if spec.kind == DOUBLE_EXPONENTIAL:
        # Laplace(scale s): P(|Z| >= t) = exp(-t/s) = exp(-t / (2*(s/2))).
        return TailMetadata(p=1.0, q=1.0, sigma=spec.sigma / 2.0, c_a=2.0, c_b=2.0)
    raise ValueError(f"{spec.kind} is not in the sub-Weibull catalogue used by the stochastic algorithm")


# ---------------------------------------------------------------------------
# Reward models
# ---------------------------------------------------------------------------

UNIFORM_SHIFT = "uniform_shift"
RADEMACHER_SHIFT = "rademacher_shift"
GAUSSIAN_SHIFT = "gaussian_shift"
GAUSSIAN_MIXTURE_SHIFT = "gaussian_mixture_shift"
POINT = "point"

REWARD_MODELS = (UNIFORM_SHIFT, RADEMACHER_SHIFT, GAUSSIAN_SHIFT, GAUSSIAN_MIXTURE_SHIFT, POINT)


@dataclass(frozen=True)
class RewardModel:
    """1-sub-Gaussian reward noise shifted by the arm mean.

    Each kind produces samples whose expectation is exactly the arm mean; the
    mixture places weight 1/2 on components centred one unit either side of it.
    ``point`` is the deterministic model used by the lower-bound instance.
    """

    kind: str = GAUSSIAN_SHIFT

    def __post_init__(self) -> None:
        if self.kind not in REWARD_MODELS:
            raise ValueError(f"unknown reward model: {self.kind!r}")

    def sample_table(self, means: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
        """An (n, K) table: entry [k, i] is the reward for the k-th pull of arm i."""
        means = np.asarray(means, dtype=float)
        shape = (n, means.size)
        if self.kind == POINT:
            return np.broadcast_to(means, shape).copy()
        if self.kind == UNIFORM_SHIFT:
            return means + rng.uniform(-1.0, 1.0, shape)
        if self.kind == RADEMACHER_SHIFT:
            return means + np.where(rng.random(shape) < 0.5, -1.0, 1.0)
        if self.kind == GAUSSIAN_SHIFT:
            return means + rng.standard_normal(shape)
        # Gaussian mixture: fair coin between N(mu-1, 1) and N(mu+1, 1).
        signs = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
        return means + signs + rng.standard_normal(shape)
