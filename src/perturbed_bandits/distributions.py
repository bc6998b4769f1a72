"""Perturbation and reward distributions.

Every distribution used by the bandit algorithms lives here: seeded sampling
of every kind, hazard-rate suprema, and the hazard rate of the Gumbel and the
Frechet.  Gumbel is the standard one
(location 0, scale 1).  Weibull and Pareto use the shifted forms
F(x) = 1 - exp(1 - (1+x)^a) and F(x) = 1 - (1+x)^(-a) on x >= 0, so the
block-maxima normalizing constants come out with clean closed forms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

GAUSSIAN = "gaussian"
UNIFORM = "uniform"
RADEMACHER = "rademacher"
DOUBLE_EXPONENTIAL = "double_exponential"
GUMBEL = "gumbel"
GAMMA = "gamma"
WEIBULL = "weibull"
FRECHET = "frechet"
PARETO = "pareto"

_BOUNDED_KINDS = {UNIFORM, RADEMACHER}
# Distributions with a bounded hazard rate (hazard supremum is well defined).
_BOUNDED_HAZARD_KINDS = {GUMBEL, GAMMA, WEIBULL, FRECHET, PARETO}
# Distributions drawn by inverse CDF, one uniform per draw (see _inverse_cdf).
_INVERSE_CDF_KINDS = {GUMBEL, WEIBULL, FRECHET, PARETO}
# The most draws sample_block_max holds at once (2 MiB of doubles), unless
# one block alone is longer.
_PIECE = 1 << 18


@dataclass(frozen=True)
class PerturbationSpec:
    """A named perturbation distribution with its parameters.

    ``sigma`` scales Gaussian and double-exponential, ``alpha`` is the shape of
    Gamma, Weibull, Frechet and Pareto, and Gumbel is the standard one.
    Parameters are validated at construction so sampling never fails.
    """

    kind: str
    sigma: float = 1.0
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in PERTURBATIONS:
            raise ValueError(f"unknown perturbation kind: {self.kind!r}")
        if self.kind in (GAUSSIAN, DOUBLE_EXPONENTIAL) and not 0 < self.sigma < math.inf:
            raise ValueError(f"{self.kind} requires finite sigma > 0, got {self.sigma}")
        if self.kind in (GAMMA, WEIBULL, PARETO) and not 0 < self.alpha < math.inf:
            raise ValueError(f"{self.kind} requires finite alpha > 0, got {self.alpha}")
        if self.kind == FRECHET and not 1 < self.alpha < math.inf:
            # alpha <= 1 has no finite mean, so block maxima and tuning break down.
            raise ValueError(f"frechet requires finite alpha > 1, got {self.alpha}")

    @property
    def bounded_support(self) -> bool:
        return self.kind in _BOUNDED_KINDS

    def label(self) -> str:
        if self.kind in (GAUSSIAN, DOUBLE_EXPONENTIAL):
            return f"{self.kind}({self.sigma:g})"
        if self.kind == GUMBEL:
            return "gumbel(0,1)"
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


def gumbel() -> PerturbationSpec:
    return PerturbationSpec(GUMBEL)


def gamma(alpha: float = 2.0) -> PerturbationSpec:
    return PerturbationSpec(GAMMA, alpha=alpha)


def weibull(alpha: float = 1.0) -> PerturbationSpec:
    return PerturbationSpec(WEIBULL, alpha=alpha)


def frechet(alpha: float = 2.0) -> PerturbationSpec:
    return PerturbationSpec(FRECHET, alpha=alpha)


def pareto(alpha: float = 2.0) -> PerturbationSpec:
    return PerturbationSpec(PARETO, alpha=alpha)


# Each perturbation kind: its factory, and the config key of the factory's one
# parameter (None if it takes none).  An absent key leaves the factory's default.
PERTURBATIONS = {
    GAUSSIAN: (gaussian, "sigma"),
    DOUBLE_EXPONENTIAL: (double_exponential, "sigma"),
    UNIFORM: (uniform, None),
    RADEMACHER: (rademacher, None),
    GUMBEL: (gumbel, None),
    GAMMA: (gamma, "shape"),
    WEIBULL: (weibull, "shape"),
    FRECHET: (frechet, "shape"),
    PARETO: (pareto, "shape"),
}


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
    if kind in _INVERSE_CDF_KINDS:
        return _inverse_cdf(spec, rng.random(shape))
    raise AssertionError(kind)


def sample_block_max(spec: PerturbationSpec, rng: np.random.Generator, m: int, K: int) -> np.ndarray:
    """Maxima of ``m`` blocks of ``K`` i.i.d. draws.

    Bitwise equal to ``sample_array(spec, rng, (m, K)).max(axis=1)``, and it
    leaves the generator in the same state, but draws only ``_PIECE // K``
    whole rows at once (one row when K is larger): a block's draws are
    consecutive in the stream, so the rows come out in the same order.
    The inverse-CDF kinds take the maximum of the raw uniforms and map only
    the ``m`` maxima through the quantile, which is increasing.
    """
    inverse = spec.kind in _INVERSE_CDF_KINDS
    draw = rng.random if inverse else lambda shape: sample_array(spec, rng, shape)
    out = np.empty(m)
    rows = max(1, _PIECE // K)
    for start in range(0, m, rows):
        block = out[start : start + rows]
        draw((block.size, K)).max(axis=1, out=block)
    return _inverse_cdf(spec, out) if inverse else out


def _inverse_cdf(spec: PerturbationSpec, u):
    """The Gumbel, Weibull, Frechet or Pareto quantile at ``u`` in [0, 1)."""
    kind = spec.kind
    if kind == GUMBEL:
        return -np.log(-np.log1p(u - 1.0))
    if kind == WEIBULL:
        return (1.0 - np.log1p(-u)) ** (1.0 / spec.alpha) - 1.0
    if kind == FRECHET:
        return (-np.log1p(u - 1.0)) ** (-1.0 / spec.alpha)
    if kind == PARETO:
        return (1.0 - u) ** (-1.0 / spec.alpha) - 1.0
    raise AssertionError(kind)


# ---------------------------------------------------------------------------
# Hazard rate
# ---------------------------------------------------------------------------


class HazardInterval(NamedTuple):
    """Analytic bracket for a hazard supremum plus its exact value."""

    lower: float
    upper: float
    estimate: float


def hazard(spec: PerturbationSpec, x):
    """Hazard rate f(x) / (1 - F(x)) of the Gumbel or the Frechet; defined at
    finite x where the density is positive.

    In y = -log F(x), e^-x for the Gumbel and x^-alpha (x > 0) for the
    Frechet, the density is a y^p e^-y and the survival 1 - e^-y, with (a, p)
    = (1, 1) and (alpha, 1 + 1/alpha): the hazard is a y^p / (e^y - 1).
    """
    if not np.all(np.isfinite(x)):
        raise ValueError("hazard needs finite x")
    if spec.kind not in (GUMBEL, FRECHET):
        raise ValueError(f"no hazard rate for {spec.kind}: only gumbel and frechet have one")
    x = np.asarray(x, dtype=float)
    # y is infinite where e^-x or x^-alpha overflows, and at x <= 0 for the
    # Frechet; there the density is 0 (nan here, from inf * 0).
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if spec.kind == GUMBEL:
            y, a, p = np.exp(-x), 1.0, 1.0
        else:
            y = np.where(x > 0, np.abs(x) ** -spec.alpha, np.inf)
            a, p = spec.alpha, 1.0 + 1.0 / spec.alpha
        density = a * y**p * np.exp(-y)
    if np.any(y == 0.0):
        raise ValueError("hazard undefined where the CDF equals 1")
    if not np.all(density > 0.0):
        raise ValueError("hazard undefined where the density vanishes")
    out = density / -np.expm1(-y)
    return out if out.ndim else float(out)


def sup_hazard(spec: PerturbationSpec):
    """Supremum of the hazard rate: a float, except for the Frechet, whose
    supremum solves an equation with no closed-form root; for it a
    :class:`HazardInterval` holds an analytic bracket and the exact value.
    """
    kind = spec.kind
    if kind not in _BOUNDED_HAZARD_KINDS:
        raise ValueError(f"{kind} is not in the bounded-hazard catalogue")
    if kind == GUMBEL:
        # h increases monotonically to its supremum 1.
        return 1.0
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
    # Frechet: the hazard alpha y^c / (e^y - 1), c = 1 + 1/alpha, is largest
    # where c (1 - e^-y) = y.  That residual is concave and negative at y = c,
    # so Newton's method from there descends monotonically to its root; stop
    # when an iterate no longer descends.
    a = spec.alpha
    c = 1.0 + 1.0 / a
    y = c
    while True:
        nxt = y - (c * -math.expm1(-y) - y) / (c * math.exp(-y) - 1.0)
        if not nxt < y:
            break
        y = nxt
    return HazardInterval(lower=a / (math.e - 1.0), upper=2.0 * a, estimate=a * y**c / math.expm1(y))


# ---------------------------------------------------------------------------
# Reward models
# ---------------------------------------------------------------------------

UNIFORM_SHIFT = "uniform_shift"
RADEMACHER_SHIFT = "rademacher_shift"
GAUSSIAN_SHIFT = "gaussian_shift"
GAUSSIAN_MIXTURE_SHIFT = "gaussian_mixture_shift"
POINT = "point"

# Each reward model: the noise terms added to the arm means, in draw order.
REWARD_NOISE = {
    UNIFORM_SHIFT: (uniform(),),
    RADEMACHER_SHIFT: (rademacher(),),
    GAUSSIAN_SHIFT: (gaussian(),),
    GAUSSIAN_MIXTURE_SHIFT: (rademacher(), gaussian()),
    POINT: (),
}
REWARD_MODELS = tuple(REWARD_NOISE)


# A RewardTable's first chunk of rows; each chunk after it doubles the rows drawn.
_FIRST_ROWS = 256
# Bit generators whose ``advance(n)`` moves on by exactly n 64-bit draws.
# Philox has an ``advance`` too, but it counts blocks of four draws.  Named,
# not imported, so that importing this module does not load numpy.random.
_ADVANCEABLE = ("PCG64", "PCG64DXSM")


@dataclass(frozen=True)
class RewardModel:
    """1-sub-Gaussian reward noise shifted by the arm mean.

    A reward is the arm mean plus one zero-mean ``sample_array`` draw of each
    of the model's ``REWARD_NOISE`` terms; the mixture's sign centres it one
    unit either side of the mean.  ``point`` (no noise) is the lower-bound instance's.
    """

    kind: str = GAUSSIAN_SHIFT

    def __post_init__(self) -> None:
        if self.kind not in REWARD_MODELS:
            raise ValueError(f"unknown reward model: {self.kind!r}")

    def reward_table(self, means, n: int, rng: np.random.Generator) -> RewardTable:
        """The (n, K) reward table at ``means``, drawn from ``rng`` as pulls reach its rows."""
        return RewardTable(self, means, n, rng)

    def sample_table(self, means, n: int, rng: np.random.Generator) -> np.ndarray:
        """Every row of ``reward_table(means, n, rng)``: an (n, K) array whose
        entry [k, i] is the reward for the k-th pull of arm i.  It leaves
        ``rng`` in the state that drawing the whole table at once leaves it in."""
        return self.reward_table(means, n, rng).through(n - 1)


def _moved_on(state: dict, draws: int) -> np.random.Generator:
    """A generator at ``state`` moved on by ``draws`` 64-bit draws.
    ``advance`` empties the bit generator's buffered 32-bit half-draw, so it is put back."""
    bits = getattr(np.random, state["bit_generator"])()
    bits.state = state
    bits.advance(draws)
    bits.state = {**bits.state, "has_uint32": state["has_uint32"], "uinteger": state["uinteger"]}
    return np.random.Generator(bits)


class RewardTable:
    """The (T, K) reward table of ``model`` at ``means``, whose entry [n, i] is
    the reward of arm i's n-th pull, drawn from ``rng`` in chunks of rows as
    pulls reach them: ``rows`` is the prefix drawn so far.

    Every row drawn holds the bits that the whole table, drawn at once, holds
    in that row.  numpy generators fill arrays from sequential draws, so rows
    [a, b) of a noise term are draws a*K to b*K of that term's stream.  Each
    term but the last costs one 64-bit draw per entry (uniform or Rademacher),
    so term j's stream starts j*T*K draws in: it draws from its own copy of
    ``rng`` moved on by ``advance``.  A bit generator without a draw-counting
    ``advance`` (MT19937, SFC64, Philox) draws every row of a model with two
    or more terms at construction.  Once every row is drawn, ``rng`` is where
    drawing the whole table at once leaves it.
    """

    def __init__(self, model: RewardModel, means, horizon: int, rng: np.random.Generator) -> None:
        self.means = np.asarray(means, dtype=float)
        self.horizon = horizon
        self._terms = REWARD_NOISE[model.kind]
        self._rng = rng
        self._rngs = [rng] * len(self._terms)
        self._buffer = np.empty((horizon, self.means.size))
        self.rows = self._buffer[:0]
        if len(self._terms) > 1:
            start, entries = rng.bit_generator.state, self._buffer.size
            if start["bit_generator"] in _ADVANCEABLE:
                self._rngs[1:] = [_moved_on(start, j * entries) for j in range(1, len(self._terms))]
            else:
                self._draw(horizon)

    def through(self, n: int) -> np.ndarray:
        """``rows``, drawn on to include row ``n``: the first chunk is 256
        rows, and each chunk after it doubles the rows drawn, up to T."""
        size = max(len(self.rows), _FIRST_ROWS)
        while size <= n:
            size *= 2
        self._draw(min(size, self.horizon))
        return self.rows

    def _draw(self, stop: int) -> None:
        """Draw rows up to ``stop``: the means plus each noise term, in the
        order that drawing the whole table adds them."""
        chunk = self._buffer[len(self.rows) : stop]
        chunk[...] = self.means
        for spec, rng in zip(self._terms, self._rngs):
            chunk += sample_array(spec, rng, chunk.shape)
        self.rows = self._buffer[:stop]
        if stop == self.horizon and self._terms:
            self._rng.bit_generator.state = self._rngs[-1].bit_generator.state
