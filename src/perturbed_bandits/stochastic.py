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

    @property
    def num_arms(self) -> int:
        return self.means.size

    def gaps(self) -> np.ndarray:
        """Sub-optimality gaps: best mean minus each arm's mean."""
        return self.means.max() - self.means


@dataclass
class LearnerState:
    """Pull counts and running reward averages after ``t`` rounds."""

    counts: np.ndarray
    means_hat: np.ndarray
    t: int = 0

    @classmethod
    def fresh(cls, num_arms: int) -> "LearnerState":
        return cls(counts=np.zeros(num_arms, dtype=np.int64), means_hat=np.zeros(num_arms), t=0)

    @property
    def num_arms(self) -> int:
        return self.counts.size


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
            if not self.epsilon > 0:
                raise ValueError("rcb requires epsilon > 0")

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

    @property
    def final_counts(self) -> np.ndarray:
        return np.bincount(self.arms, minlength=self.gaps.size)


def _argmax_random_ties(values: np.ndarray, rng: np.random.Generator) -> int:
    """Argmax with uniform tie breaking.

    Ties are measure zero for continuous perturbations, so the generator is
    only consumed when an exact tie occurs (e.g. Rademacher), which keeps
    coupled runs of tie-free policies on identical streams.
    """
    best = int(values.argmax())
    # argmax returns the first maximum, so there is a tie exactly when the
    # last maximum lies elsewhere.
    if values[::-1].argmax() != values.size - 1 - best:
        ties = np.flatnonzero(values == values[best])
        best = int(ties[rng.integers(ties.size)])
    return best


def _width_sq(kind: str, horizon: int, epsilon: float) -> float:
    """The squared exploration width: 2 log T for UCB1, (2 + eps) log T for RCB."""
    return ((2.0 + epsilon) if kind == FTPL_BOUNDED else 2.0) * math.log(horizon)


def _scale(kind: str, pulls, width_sq: float):
    """The scale of the perturbed index at ``pulls`` >= 1 pulls, for one arm
    or an array of arms: sqrt(width_sq / T_i) for UCB1 and RCB, and sqrt(T_i),
    which divides Z, for FTPL and Thompson sampling."""
    if kind in (UCB1, FTPL_BOUNDED):
        return np.sqrt(width_sq / pulls)
    return np.sqrt(pulls)


def _scales(kind: str, counts: np.ndarray, width_sq: float) -> np.ndarray:
    """``_scale`` of every arm, an unpulled arm counting as pulled once, except
    under UCB1, whose unpulled arms get an infinite scale so they come first."""
    scale = _scale(kind, np.maximum(counts, 1), width_sq)
    return np.where(counts == 0, np.inf, scale) if kind == UCB1 else scale


def _index(kind: str, means: np.ndarray, scale: np.ndarray, z: np.ndarray | float | None) -> np.ndarray:
    """The perturbed index mean_i + scale_i * Z_i of every policy.

    UCB1 is the Z = 1 case; RCB multiplies its bounded Z by the widened scale;
    FTPL and Thompson sampling divide Z by sqrt(1 v T_i).
    """
    if kind == UCB1:
        return means + scale
    if kind == FTPL_BOUNDED:
        return means + scale * z
    return means + z / scale


def select_ucb1(state: LearnerState, horizon: int) -> int:
    """Arm with the largest upper confidence bound mean + sqrt(2 log T / T_i);
    unpulled arms come first (lowest index among them)."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    scale = _scales(UCB1, state.counts, _width_sq(UCB1, horizon, 0.0))
    return int(_index(UCB1, state.means_hat, scale, None).argmax())


def select_thompson_gaussian(state: LearnerState, rng: np.random.Generator) -> int:
    """Sample theta_i ~ N(mean_i, 1 / (1 v T_i)) per arm and play the argmax."""
    return select_ftpl_unbounded(state, dist.gaussian(1.0), rng)


def select_ftpl_unbounded(state: LearnerState, spec: PerturbationSpec, rng: np.random.Generator) -> int:
    """Play argmax of mean_i + Z_i / sqrt(1 v T_i) with fresh i.i.d. Z.

    With a unit Gaussian this is distributionally (and, under coupled seeds,
    bitwise) identical to Gaussian Thompson sampling.
    """
    if spec.bounded_support:
        raise ValueError("bounded perturbations need the widened rcb scaling; see select_ftpl_bounded")
    z = dist.sample_array(spec, rng, state.num_arms)
    theta = _index(FTPL_UNBOUNDED, state.means_hat, _scales(FTPL_UNBOUNDED, state.counts, 0.0), z)
    return _argmax_random_ties(theta, rng)


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
    if not epsilon > 0:
        raise ValueError("epsilon must be > 0")
    z = dist.sample_array(spec, rng, state.num_arms)
    scale = _scales(FTPL_BOUNDED, state.counts, _width_sq(FTPL_BOUNDED, horizon, epsilon))
    theta = _index(FTPL_BOUNDED, state.means_hat, scale, z)
    return _argmax_random_ties(theta, rng)


def update(state: LearnerState, arm: int, reward: float) -> LearnerState:
    """Fold one observed reward into the running average for ``arm``."""
    n = int(state.counts[arm])
    state.means_hat[arm] = (float(state.means_hat[arm]) * n + reward) / (n + 1)
    state.counts[arm] = n + 1
    state.t += 1
    return state


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
    if horizon is None:
        kind, width_sq = FTPL_UNBOUNDED, 0.0
    else:
        kind, width_sq = FTPL_BOUNDED, _width_sq(FTPL_BOUNDED, horizon, epsilon)
    scale = _scales(kind, state.counts, width_sq)
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
        yield from dist.sample_array(spec, rng, (1024, num_arms))


def play(rewards: np.ndarray, policy: PolicyConfig, policy_rng: np.random.Generator) -> np.ndarray:
    """Play one episode against a pre-drawn (T, K) reward table and return the
    arms played.  Entry [n, i] is the reward of arm i's n-th pull, so policies
    that play the same table see identical reward realizations.
    """
    T, K = rewards.shape
    state = LearnerState.fresh(K)
    arms = np.empty(T, dtype=np.int64)

    kind = policy.kind
    width_sq = _width_sq(kind, T, policy.epsilon)
    scale = _scales(kind, state.counts, width_sq)
    if kind == UCB1:
        rows = itertools.repeat(None)
    else:
        rows = _perturbation_rows(dist.gaussian(1.0) if kind == THOMPSON else policy.spec, policy_rng, K)

    # Only the played arm's mean and scale change in a round, so the scale is
    # updated in place.
    for t, z in zip(range(T), rows):
        theta = _index(kind, state.means_hat, scale, z)
        arm = int(theta.argmax()) if kind == UCB1 else _argmax_random_ties(theta, policy_rng)
        n = int(state.counts[arm])
        update(state, arm, rewards[n, arm])
        scale[arm] = _scale(kind, n + 1.0, width_sq)
        arms[t] = arm
    return arms


def run_episode(
    instance: BanditInstance,
    policy: PolicyConfig,
    *,
    reward_rng: np.random.Generator,
    policy_rng: np.random.Generator,
) -> RegretTrace:
    """Draw one episode's reward table from ``reward_rng``, ``play`` it, and
    return the arms played."""
    rewards = instance.reward_model.sample_table(instance.means, instance.horizon, reward_rng)
    return RegretTrace(gaps=instance.gaps(), arms=play(rewards, policy, policy_rng))
