"""Stochastic K-armed bandits and the four perturbation-flavoured policies:
UCB1, Gaussian Thompson sampling, FTPL with an unbounded perturbation, and
FTPL with a widened bounded perturbation (the randomized confidence bound,
RCB, algorithm)."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from .distributions import PerturbationSpec, RewardModel

UCB1 = "ucb1"
THOMPSON = "thompson"
FTPL_UNBOUNDED = "ftpl"
FTPL_BOUNDED = "rcb"


@dataclass(frozen=True)
class BanditInstance:
    """Arm means, reward noise model and horizon for one environment."""

    means: np.ndarray
    reward_model: RewardModel
    horizon: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "means", np.asarray(self.means, dtype=float))
        if self.horizon < 1:
            raise ValueError("horizon must be positive")

    def gaps(self) -> np.ndarray:
        """Sub-optimality gaps: best mean minus each arm's mean."""
        return self.means.max() - self.means


@dataclass
class LearnerState:
    """Pull counts and running reward averages after ``t`` rounds."""

    counts: np.ndarray
    means_hat: np.ndarray
    t: int = 0


@dataclass(frozen=True)
class PolicyConfig:
    """Which policy to run and with what perturbation.

    ``ftpl`` needs an unbounded perturbation; ``rcb`` needs one supported on
    [-1, 1] and a widening exponent ``epsilon`` > 0.
    """

    kind: str
    spec: PerturbationSpec | None = None
    epsilon: float = 0.25

    def __post_init__(self) -> None:
        if self.kind not in (UCB1, THOMPSON, FTPL_UNBOUNDED, FTPL_BOUNDED):
            raise ValueError(f"unknown policy kind: {self.kind!r}")
        if self.kind == FTPL_UNBOUNDED:
            if self.spec is None or self.spec.bounded_support:
                raise ValueError("ftpl requires an unbounded perturbation")
        if self.kind == FTPL_BOUNDED:
            if self.spec is None or not self.spec.bounded_support:
                raise ValueError("rcb requires a bounded perturbation supported on [-1, 1]")
            if not 0 < self.epsilon < math.inf:
                raise ValueError(f"rcb requires finite epsilon > 0, got {self.epsilon}")

    def label(self) -> str:
        if self.kind in (UCB1, THOMPSON):
            return self.kind
        return f"{self.kind}-{self.spec.kind}"


@dataclass(frozen=True)
class RegretTrace:
    """The arms one episode played, and the pseudo-regret they add up to."""

    gaps: np.ndarray
    arms: np.ndarray

    def regret(self, t: int) -> float:
        """Pseudo-regret after the first ``t`` rounds: sum_i gap_i * T_i(t)."""
        return float(self.gaps.dot(np.bincount(self.arms[:t], minlength=self.gaps.size)))

    @property
    def final(self) -> float:
        return self.regret(self.arms.size)


def _argmax_random_ties(values: np.ndarray, rng: np.random.Generator, reverse: np.ndarray | None = None) -> int:
    """Argmax with uniform tie breaking; ``reverse`` is ``values[::-1]``,
    which a caller that reuses one buffer makes once.

    Ties are measure zero for continuous perturbations, so the generator is
    only consumed when an exact tie occurs (e.g. Rademacher), which keeps
    coupled runs of tie-free policies on identical streams.
    """
    best = int(values.argmax())
    # argmax returns the first maximum, so there is a tie exactly when the
    # last maximum lies elsewhere.
    if (values[::-1] if reverse is None else reverse).argmax() != values.size - 1 - best:
        ties = np.flatnonzero(values == values[best])
        best = int(ties[rng.integers(ties.size)])
    return best


def _scale(kind: str, pulls, horizon: int, epsilon: float):
    """The scale of the perturbed index at ``pulls`` >= 1 pulls, for one arm
    or an array of arms: sqrt(w / T_i) for UCB1 and RCB, whose squared width w
    is 2 log T for UCB1 and (2 + eps) log T for RCB, and sqrt(T_i), which
    divides Z, for FTPL and Thompson sampling.  A float ``pulls`` gets
    ``math.sqrt``, which rounds correctly, as ``np.sqrt`` does."""
    sqrt = math.sqrt if isinstance(pulls, float) else np.sqrt
    if kind in (UCB1, FTPL_BOUNDED):
        w = ((2.0 + epsilon) if kind == FTPL_BOUNDED else 2.0) * math.log(horizon)
        return sqrt(w / pulls)
    return sqrt(pulls)


def _index(kind: str, means: np.ndarray, scale: np.ndarray, z: np.ndarray | float | None, out=None) -> np.ndarray:
    """The perturbed index mean_i + scale_i * Z_i of every policy, written
    into ``out`` when it is given (addition commutes bit for bit).

    UCB1 is the Z = 1 case; RCB multiplies its bounded Z by the widened scale;
    FTPL and Thompson sampling divide Z by sqrt(1 v T_i).
    """
    if kind == UCB1:
        return np.add(means, scale, out)
    if kind == FTPL_BOUNDED:
        return np.add(np.multiply(scale, z, out), means, out)
    return np.add(np.divide(z, scale, out), means, out)


def select_ftpl_bounded(
    state: LearnerState,
    spec: PerturbationSpec,
    horizon: int,
    epsilon: float,
    rng: np.random.Generator,
) -> int:
    """RCB: argmax of mean_i + sqrt((2+eps) log T / (1 v T_i)) * Z_i with Z in [-1, 1]."""
    if not spec.bounded_support:
        raise ValueError("select_ftpl_bounded requires a bounded perturbation")
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
    z = dist.sample_array(spec, rng, state.counts.size)
    scale = _scale(FTPL_BOUNDED, np.maximum(state.counts, 1), horizon, epsilon)
    theta = _index(FTPL_BOUNDED, state.means_hat, scale, z)
    return _argmax_random_ties(theta, rng)


def theta_support_intervals(
    state: LearnerState,
    spec: PerturbationSpec,
    horizon: int | None = None,
    epsilon: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-arm interval of reachable perturbed indices for a bounded perturbation.

    Without ``horizon``/``epsilon`` the unwidened 1/sqrt(1 v T_i) scaling is
    used; with them, the RCB widening.  Exposes the failure of unwidened
    bounded perturbations as pure interval arithmetic.
    """
    if not spec.bounded_support:
        raise ValueError("support intervals are only defined for bounded perturbations")
    if (horizon is None) != (epsilon is None):
        raise ValueError("pass horizon and epsilon together, or neither")
    kind = FTPL_UNBOUNDED if horizon is None else FTPL_BOUNDED
    scale = _scale(kind, np.maximum(state.counts, 1), horizon, epsilon)
    return _index(kind, state.means_hat, scale, -1.0), _index(kind, state.means_hat, scale, 1.0)


def make_lower_bound_instance(K: int, T: int, q: float) -> BanditInstance:
    """Point-mass instance with a single good arm at gap sqrt(K/T) (log K)^(1/q)."""
    if K < 2 or T < K:
        raise ValueError("need K >= 2 and T >= K")
    delta = math.sqrt(K / T) * math.log(K) ** (1.0 / q)
    if delta >= 1.0:
        raise ValueError(f"horizon too small: gap {delta:.3f} >= 1")
    means = np.zeros(K)
    means[0] = delta
    return BanditInstance(means=means, reward_model=RewardModel(dist.POINT), horizon=T)


def _perturbation_rows(spec: PerturbationSpec, rng: np.random.Generator, num_arms: int):
    """Yields K-vectors of perturbations from draws of 1,024 rows at a time.

    Batching only changes how often the generator is called, not the value
    stream: numpy generators fill arrays from the same sequential draws.
    """
    while True:
        with np.errstate(over="ignore"):
            block = dist.sample_array(spec, rng, (1024, num_arms))
        if not np.isfinite(block).all():
            raise ValueError(f"{spec.label()} perturbations overflow to infinity; use a smaller scale")
        yield from block


def play(table: dist.RewardTable, policy: PolicyConfig, policy_rng: np.random.Generator) -> np.ndarray:
    """Play one episode of ``table.horizon`` rounds against a reward table and
    return the arms played.  Entry [n, i] is the reward of arm i's n-th pull,
    so policies that play the same table see identical reward realizations;
    the table draws its rows as pulls reach them and keeps them for the next
    policy.
    """
    T, K = table.horizon, table.means.size
    drawn = table.rows
    counts = [0] * K
    means = np.zeros(K)
    arms = []
    theta = np.empty(K)
    reverse = theta[::-1]

    kind, epsilon = policy.kind, policy.epsilon
    if kind == UCB1:
        # An unpulled arm's scale is infinite, so UCB1 plays every arm once first.
        scale = np.full(K, np.inf)
        rows = itertools.repeat(None)
    else:
        scale = _scale(kind, np.ones(K), T, epsilon)
        rows = _perturbation_rows(dist.gaussian(1.0) if kind == THOMPSON else policy.spec, policy_rng, K)

    # Only the played arm's mean and scale change in a round, so both are
    # updated in place.
    for z in itertools.islice(rows, T):
        _index(kind, means, scale, z, theta)
        arm = int(theta.argmax()) if kind == UCB1 else _argmax_random_ties(theta, policy_rng, reverse)
        n = counts[arm]
        try:
            reward = drawn.item(n, arm)
        except IndexError:  # row n is not drawn yet
            drawn = table.through(n)
            reward = drawn.item(n, arm)
        means[arm] = (means.item(arm) * n + reward) / (n + 1)
        counts[arm] = n + 1
        scale[arm] = _scale(kind, n + 1.0, T, epsilon)
        arms.append(arm)
    return np.array(arms, dtype=np.int64)


def run_episode(
    instance: BanditInstance,
    policy: PolicyConfig,
    *,
    reward_rng: np.random.Generator,
    policy_rng: np.random.Generator,
) -> RegretTrace:
    """``play`` the instance's reward table, drawn from ``reward_rng``, and
    return the arms played."""
    table = instance.reward_model.reward_table(instance.means, instance.horizon, reward_rng)
    return RegretTrace(gaps=instance.gaps(), arms=play(table, policy, policy_rng))
