"""``stochastic.play`` and its index helpers as the package computed them
before a round kept its counts in a list of Python ints and wrote its index
into one preallocated buffer.  Kept as the oracle of ``stochastic.play``: the
two play the same arms, ties included.  Only the perturbation rows come from
the package, since ``_perturbation_rows`` did not change.  The file name keeps
pytest from collecting it."""
import itertools
import math

import numpy as np

from perturbed_bandits import distributions as dist
from perturbed_bandits.stochastic import FTPL_BOUNDED, THOMPSON, UCB1, PolicyConfig, _perturbation_rows


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


def _scale(kind: str, pulls, horizon: int, epsilon: float):
    """The scale of the perturbed index at ``pulls`` >= 1 pulls, for one arm
    or an array of arms: sqrt(w / T_i) for UCB1 and RCB, whose squared width w
    is 2 log T for UCB1 and (2 + eps) log T for RCB, and sqrt(T_i), which
    divides Z, for FTPL and Thompson sampling."""
    if kind in (UCB1, FTPL_BOUNDED):
        w = ((2.0 + epsilon) if kind == FTPL_BOUNDED else 2.0) * math.log(horizon)
        return np.sqrt(w / pulls)
    return np.sqrt(pulls)


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


def play(rewards: np.ndarray, policy: PolicyConfig, policy_rng: np.random.Generator) -> np.ndarray:
    """Play one episode against a pre-drawn (T, K) reward table and return the
    arms played.  Entry [n, i] is the reward of arm i's n-th pull, so policies
    that play the same table see identical reward realizations.
    """
    T, K = rewards.shape
    counts = np.zeros(K, dtype=np.int64)
    means = np.zeros(K)
    arms = np.empty(T, dtype=np.int64)

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
    for t, z in zip(range(T), rows):
        theta = _index(kind, means, scale, z)
        arm = int(theta.argmax()) if kind == UCB1 else _argmax_random_ties(theta, policy_rng)
        n = int(counts[arm])
        means[arm] = (float(means[arm]) * n + rewards[n, arm]) / (n + 1)
        counts[arm] = n + 1
        scale[arm] = _scale(kind, n + 1.0, T, epsilon)
        arms[t] = arm
    return arms
