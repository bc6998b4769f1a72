"""Adversarial bandits via gradient-based prediction (GBPA).

The loop samples an arm from the gradient of a smoothed max-potential and
updates an inverse-probability-weighted estimate of the cumulative rewards.
Three gradients are available: exponential weights (Shannon entropy),
Tsallis-entropy FTRL, and Monte-Carlo stochastic smoothing for an arbitrary
perturbation distribution.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from .distributions import PerturbationSpec

SHANNON = "shannon"
TSALLIS = "tsallis"
FTPL = "ftpl"


# ---------------------------------------------------------------------------
# Reward matrices (oblivious adversaries)
# ---------------------------------------------------------------------------


def validate_reward_matrix(rewards: np.ndarray) -> np.ndarray:
    rewards = np.asarray(rewards, dtype=float)
    if rewards.ndim != 2:
        raise ValueError("reward matrix must be T x K")
    if np.any(rewards < 0.0) or np.any(rewards > 1.0):
        raise ValueError("reward entries must lie in [0, 1]")
    return rewards


def make_constant_rewards(T: int, K: int) -> np.ndarray:
    return np.full((T, K), 0.5)


def make_single_best_arm_rewards(T: int, K: int) -> np.ndarray:
    rewards = np.zeros((T, K))
    rewards[:, 0] = 1.0
    return rewards


def make_iid_rewards(T: int, K: int, seed: int | np.random.SeedSequence) -> np.ndarray:
    return np.random.default_rng(seed).random((T, K))


# ---------------------------------------------------------------------------
# Choice probabilities
# ---------------------------------------------------------------------------


def choice_prob_shannon(G: np.ndarray, eta: float) -> np.ndarray:
    """Softmax of G / eta with max subtraction."""
    if not 0 < eta < math.inf:
        raise ValueError(f"eta must be finite and > 0, got {eta}")
    z = np.asarray(G, dtype=float) / eta
    z = z - z.max()
    w = np.exp(z)
    return w / w.sum()


def _tsallis_log_terms(gap: np.ndarray, alpha: float) -> np.ndarray:
    """log of the unnormalized Tsallis terms c gap^(1/(alpha-1)) at gap = lam - G_i;
    the prefactor c = ((1-alpha)/alpha)^(1/(alpha-1)) overflows for alpha near 1."""
    return 1.0 / (alpha - 1.0) * (math.log((1.0 - alpha) / alpha) + np.log(gap))


def _tsallis_gap(p, alpha: float):
    """lam - G_i at Tsallis choice probability p, inverting ``_tsallis_log_terms``."""
    return alpha / (1.0 - alpha) * p ** (alpha - 1.0)


def _tsallis_log_sum(nu: float, shifted: np.ndarray, alpha: float) -> tuple[float, float]:
    """log S(nu) and its nu-derivative, where S is the normalization sum.

    Computed via log-sum-exp so the value stays finite even where S itself
    overflows (alpha near 1, nu far from the root).
    """
    e = 1.0 / (alpha - 1.0)
    gap = nu - shifted
    log_terms = _tsallis_log_terms(gap, alpha)
    top = float(log_terms.max())
    w = np.exp(log_terms - top)
    total = float(w.sum())
    g = top + math.log(total)
    dg = float((w * (e / gap)).sum()) / total
    return g, dg


def _solve_tsallis_nu(shifted: np.ndarray, alpha: float, nu0: float | None = None) -> float:
    """Root of log S(nu) = 0 on (0, inf).

    log S is convex and strictly decreasing in nu, so a Newton step from the
    left of the root never overshoots it; bisection guards the rare step that
    leaves the bracket.
    """
    scale = max(1.0, float(-shifted.min()))
    lo = 1e-300
    at_nu0 = _tsallis_log_sum(nu0, shifted, alpha) if nu0 is not None and nu0 > 0 else None
    if at_nu0 is not None and at_nu0[0] >= 0.0:
        lo = nu0
    hi = max(lo, 0.0) + scale
    while _tsallis_log_sum(hi, shifted, alpha)[0] > 0.0:
        hi *= 2.0

    # A warm start from the previous round is usually within a Newton step or
    # two of the root; fall back to the bracket midpoint otherwise.
    if nu0 is not None and lo <= nu0 <= hi:
        nu = max(nu0, 1e-12)
    else:
        nu = 0.5 * (max(lo, 1e-12) + hi)
    g, dg = at_nu0 if at_nu0 is not None and nu == nu0 else _tsallis_log_sum(nu, shifted, alpha)
    for _ in range(200):
        if abs(g) <= 1e-13:
            break
        step = nu - g / dg if dg < 0.0 else math.inf
        nu = step if (lo < step < hi and np.isfinite(step)) else 0.5 * (lo + hi)
        g, dg = _tsallis_log_sum(nu, shifted, alpha)
        if g > 0.0:
            lo = nu
        else:
            hi = nu
    # For alpha near 1 the exponent 1/(alpha-1) amplifies rounding in S(nu)
    # above the residual target even though nu itself is exact to machine
    # precision, so a collapsed bracket also counts as converged.
    bracket_collapsed = hi - lo <= 16.0 * np.finfo(float).eps * max(1.0, hi)
    if abs(g) > 1e-12 and not bracket_collapsed:
        raise ArithmeticError(f"tsallis normalization residual {abs(math.expm1(g)):.2e}")
    return float(nu)


def _tsallis_probabilities(
    G: np.ndarray, eta: float, alpha: float, nu0: float | None = None
) -> tuple[np.ndarray, float]:
    """Tsallis choice probabilities of G at learning rate eta, and the solved nu.

    The callers check the inputs.  G/eta is shifted by its max (all <= 0), so
    lam - G_i = nu - shifted_i keeps its digits even when G is large."""
    shifted = G / eta
    shifted = shifted - shifted.max()
    nu = _solve_tsallis_nu(shifted, alpha, nu0)
    with np.errstate(over="ignore"):
        p = np.exp(_tsallis_log_terms(nu - shifted, alpha))
    return p / p.sum(), nu


def choice_prob_tsallis(G: np.ndarray, eta: float, alpha: float) -> np.ndarray:
    """FTRL gradient for the Tsallis entropy regularizer."""
    if not 0 < eta < math.inf:
        raise ValueError(f"eta must be finite and > 0, got {eta}")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not np.all(np.isfinite(G)):
        raise ValueError("G must be finite")
    p = _tsallis_probabilities(np.asarray(G, dtype=float), eta, alpha)[0]
    if not np.all(np.isfinite(p)):
        raise ValueError("G is too large for eta")
    return p


def floor_probabilities(p: np.ndarray, rho: float) -> np.ndarray:
    """Raise entries below ``rho`` to it and remove the added mass from the
    remaining entries in proportion to their slack above the floor."""
    p = np.asarray(p, dtype=float)
    K = p.size
    if not 0.0 < rho < 1.0 / K:
        raise ValueError("floor must lie in (0, 1/K)")
    out = np.maximum(p, rho)
    excess = out.sum() - 1.0
    if excess > 0.0:
        slack = out - rho
        total = slack.sum()
        if total > 0.0:
            out = out - excess * slack / total
    return out


def choice_prob_ftpl_mc(
    G: np.ndarray,
    eta: float,
    spec: PerturbationSpec,
    mc_samples: int,
    rho: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Monte-Carlo estimate of the stochastically smoothed gradient.

    Empirical frequency of argmax(G + eta Z) over ``mc_samples`` perturbation
    vectors, floored at ``rho`` so the importance-weighted estimator stays
    bounded.
    """
    if mc_samples < 1:
        raise ValueError("mc_samples must be >= 1")
    G = np.asarray(G, dtype=float)
    counts = _argmax_counts(G, eta, spec, mc_samples, rng)
    return floor_probabilities(counts / mc_samples, rho)


def _argmax_counts(
    G: np.ndarray, eta: float, spec: PerturbationSpec, mc_samples: int, rng: np.random.Generator
) -> np.ndarray:
    K = G.size
    counts = np.zeros(K, dtype=np.int64)
    chunk = max(1, min(mc_samples, dist._PIECE // K))
    done = 0
    while done < mc_samples:
        m = min(chunk, mc_samples - done)
        z = dist.sample_array(spec, rng, (m, K))
        idx = np.argmax(G + eta * z, axis=1)
        counts += np.bincount(idx, minlength=K)
        done += m
    return counts


def tune_eta(K: int, T: int, sup_h: float, e_mk: float) -> float:
    """Scale minimizing eta * E[M_K] + K * sup_h * T / eta."""
    if min(K, T) < 1 or not (0 < sup_h < math.inf and 0 < e_mk < math.inf):
        raise ValueError("all inputs must be positive and finite")
    return math.sqrt(K * sup_h * T / e_mk)


# ---------------------------------------------------------------------------
# The GBPA loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PotentialSpec:
    """Smoothed-potential choice: shannon(eta), tsallis(eta, alpha) or
    ftpl(eta, perturbation, mc_samples)."""

    kind: str
    eta: float = 1.0
    alpha: float = 0.5
    spec: PerturbationSpec | None = None
    mc_samples: int = 1000

    def __post_init__(self) -> None:
        if self.kind not in (SHANNON, TSALLIS, FTPL):
            raise ValueError(f"unknown potential kind: {self.kind!r}")
        if not 0 < self.eta < math.inf:
            raise ValueError(f"eta must be finite and > 0, got {self.eta}")
        if self.kind == TSALLIS and not 0.0 < self.alpha < 1.0:
            raise ValueError("tsallis alpha must lie in (0, 1)")
        if self.kind == FTPL:
            if self.spec is None:
                raise ValueError("ftpl potential needs a perturbation spec")
            if not isinstance(self.mc_samples, numbers.Integral) or self.mc_samples < 1:
                raise ValueError(f"mc_samples must be an integer >= 1, got {self.mc_samples!r}")

    def label(self) -> str:
        """The potential without its learning rate, which is the grid parameter."""
        if self.kind == SHANNON:
            return SHANNON
        if self.kind == TSALLIS:
            return f"tsallis(alpha={self.alpha:g})"
        return f"ftpl[{self.spec.label()}]"


def run_gbpa(
    rewards: np.ndarray, potential: PotentialSpec, seed: int | np.random.Generator
) -> tuple[float, np.ndarray]:
    """Play the reward matrix; return the regret against the best fixed arm and the arms played.

    With an oblivious adversary this is the expected-regret target once
    averaged over episodes.  FTPL probabilities are floored at 1e-4 / K so the
    importance weights stay bounded.
    """
    rewards = validate_reward_matrix(rewards)
    T, K = rewards.shape
    rng = np.random.default_rng(seed)

    g_hat = np.zeros(K)
    arms = np.empty(T, dtype=np.int64)

    kind = potential.kind
    rho = 1e-4 / K
    nu = None
    for t in range(T):
        if kind == SHANNON:
            p = choice_prob_shannon(g_hat, potential.eta)
        elif kind == TSALLIS:
            p, nu = _tsallis_probabilities(g_hat, potential.eta, potential.alpha, nu)
        else:
            p = choice_prob_ftpl_mc(g_hat, potential.eta, potential.spec, potential.mc_samples, rho, rng)
        u = rng.random()
        arm = int(p.cumsum().searchsorted(u * p.sum(), side="right"))
        arm = min(arm, K - 1)
        g_hat[arm] += rewards[t, arm] / p[arm]
        arms[t] = arm

    return float(regret_at_checkpoints(rewards, arms, [T])[0]), arms


def regret_at_checkpoints(rewards: np.ndarray, arms: np.ndarray, checkpoints) -> np.ndarray:
    """Realized regret against the best fixed arm at each prefix length in
    [1, len(arms)]."""
    rows = np.asarray(checkpoints, dtype=np.int64) - 1
    if np.any((rows < 0) | (rows >= arms.size)):
        raise ValueError(f"checkpoints must lie in [1, {arms.size}], got {(rows + 1).tolist()}")
    rewards = np.asarray(rewards, dtype=float)
    cum = np.cumsum(rewards, axis=0)
    realized = np.cumsum(rewards[np.arange(arms.size), arms])
    return cum[rows].max(axis=1) - realized[rows]
