"""Adversarial bandits via gradient-based prediction (GBPA).

The loop samples an arm from the gradient of a smoothed max-potential and
updates an inverse-probability-weighted estimate of the cumulative rewards.
Three gradients are available: exponential weights (Shannon entropy),
Tsallis-entropy FTRL, and Monte-Carlo stochastic smoothing for an arbitrary
perturbation distribution.  The rounds run on lists of K Python floats (at
K = 10 a numpy call costs more than its arithmetic); the gradients that
run_gbpa calls also take an array, and then return one."""
from __future__ import annotations

import math
import numbers
import sys
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

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


def choice_prob_shannon(G, eta: float):
    """Softmax of G / eta, with G shifted by its max first so no exponent is positive."""
    if not 0 < eta < math.inf:
        raise ValueError(f"eta must be finite and > 0, got {eta}")
    scores = G if isinstance(G, list) else np.asarray(G, dtype=float).tolist()
    top = max(scores)
    w = [math.exp((g - top) / eta) for g in scores]
    total = math.fsum(w)
    p = [x / total for x in w]
    return p if isinstance(G, list) else np.array(p)


def _tsallis_log_terms(gaps, alpha: float) -> list[float]:
    """log of the unnormalized Tsallis terms c gap^(1/(alpha-1)) at each gap = lam - G_i;
    the prefactor c = ((1-alpha)/alpha)^(1/(alpha-1)) overflows for alpha near 1."""
    e, c = 1.0 / (alpha - 1.0), math.log((1.0 - alpha) / alpha)
    return [e * (c + log_gap) for log_gap in map(math.log, gaps)]


def _tsallis_gap(p, alpha: float):
    """lam - G_i at Tsallis choice probability p, inverting ``_tsallis_log_terms``."""
    return alpha / (1.0 - alpha) * p ** (alpha - 1.0)


def _tsallis_log_sum(nu: float, shifted: list[float], alpha: float) -> tuple[float, float]:
    """log S(nu) and its nu-derivative, where S is the normalization sum.

    Computed via log-sum-exp so the value stays finite even where S itself
    overflows (alpha near 1, nu far from the root).  Sums are sequential, as
    numpy's are below 8 terms: theory-check's K = 4 Jacobian reads their bits.
    """
    e = 1.0 / (alpha - 1.0)
    gaps = [nu - s for s in shifted]
    log_terms = _tsallis_log_terms(gaps, alpha)
    top = max(log_terms)
    w = [math.exp(x - top) for x in log_terms]
    total = sum(w)
    g = top + math.log(total)
    dg = sum([x * (e / gap) for x, gap in zip(w, gaps)]) / total
    return g, dg


def _tsallis_hi(s0: float, shifted: list[float], alpha: float) -> float:
    """The bracket's right end: s0 doubled until log S is no longer positive."""
    hi = s0
    while _tsallis_log_sum(hi, shifted, alpha)[0] > 0.0:
        hi *= 2.0
    return hi


def _solve_tsallis_nu(shifted: list[float], alpha: float, nu0: float | None = None) -> float:
    """Root of log S(nu) = 0 on (0, inf).

    log S is convex and strictly decreasing in nu, so a Newton step from the
    left of the root never overshoots it; bisection guards the rare step that
    leaves the bracket [lo, hi].  hi >= s0 is found once a step at or above s0,
    a bisection or the exit check needs it."""
    scale = max(1.0, -min(shifted))
    lo = 1e-300
    at_nu0 = _tsallis_log_sum(nu0, shifted, alpha) if nu0 is not None and nu0 > 0 else None
    if at_nu0 is not None and at_nu0[0] >= 0.0:
        lo = nu0
    s0 = max(lo, 0.0) + scale
    hi = None  # s0 doubled until log S(hi) <= 0, so hi >= s0

    # A warm start from the previous round is usually within a Newton step or
    # two of the root; fall back to the bracket midpoint otherwise.
    if nu0 is None or not lo <= nu0 <= s0:
        hi = _tsallis_hi(s0, shifted, alpha)
    nu = max(nu0, 1e-12) if hi is None or (nu0 is not None and lo <= nu0 <= hi) else 0.5 * (max(lo, 1e-12) + hi)
    g, dg = at_nu0 if at_nu0 is not None and nu == nu0 else _tsallis_log_sum(nu, shifted, alpha)
    for _ in range(200):
        if abs(g) <= 1e-13:
            break
        step = nu - g / dg if dg < 0.0 else math.inf
        if hi is None and not lo < step < s0:
            hi = _tsallis_hi(s0, shifted, alpha)
        nu = step if hi is None or lo < step < hi else 0.5 * (lo + hi)
        g, dg = _tsallis_log_sum(nu, shifted, alpha)
        if g > 0.0:
            lo = nu
        else:
            hi = nu
    # For alpha near 1 the exponent 1/(alpha-1) amplifies rounding in S(nu)
    # above the residual target even though nu itself is exact to machine
    # precision, so a collapsed bracket also counts as converged.
    if abs(g) > 1e-12:
        hi = _tsallis_hi(s0, shifted, alpha) if hi is None else hi
        if not hi - lo <= 16.0 * sys.float_info.epsilon * max(1.0, hi):
            raise ArithmeticError(f"tsallis normalization residual {abs(math.expm1(g)):.2e}")
    return nu


def _tsallis_probabilities(G: list[float], eta: float, alpha: float, nu0: float | None = None):
    """Tsallis choice probabilities of G at learning rate eta, and the solved nu.

    The callers check the inputs.  G/eta is shifted by its max (all <= 0), so
    lam - G_i = nu - shifted_i keeps its digits even when G is large."""
    scaled = [g / eta for g in G]
    top = max(scaled)
    shifted = [s - top for s in scaled]
    nu = _solve_tsallis_nu(shifted, alpha, nu0)
    p = [math.exp(x) for x in _tsallis_log_terms([nu - s for s in shifted], alpha)]
    total = sum(p)
    return [x / total for x in p], nu


def choice_prob_tsallis(G, eta: float, alpha: float):
    """FTRL gradient for the Tsallis entropy regularizer."""
    if not 0 < eta < math.inf:
        raise ValueError(f"eta must be finite and > 0, got {eta}")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    scores = np.asarray(G, dtype=float).tolist()
    if not all(map(math.isfinite, scores)):
        raise ValueError("G must be finite")
    try:
        p = _tsallis_probabilities(scores, eta, alpha)[0]
    except (OverflowError, ZeroDivisionError):
        p = [math.nan]
    if not all(map(math.isfinite, p)):
        raise ValueError("G is too large for eta")
    return np.array(p)


def floor_probabilities(p: list[float], rho: float) -> list[float]:
    """Raise entries below ``rho`` to it and remove the added mass from the
    remaining entries in proportion to their slack above the floor."""
    if not 0.0 < rho < 1.0 / len(p):
        raise ValueError("floor must lie in (0, 1/K)")
    out = [rho if x < rho else x for x in p]
    excess = math.fsum(out) - 1.0
    if excess > 0.0:
        slack = [x - rho for x in out]
        total = math.fsum(slack)
        if total > 0.0:
            out = [x - excess * s / total for x, s in zip(out, slack)]
    return out


def choice_prob_ftpl_mc(G, eta: float, spec: PerturbationSpec, mc_samples: int, rho: float, rng: np.random.Generator):
    """Monte-Carlo estimate of the stochastically smoothed gradient: the frequency
    of argmax(G + eta Z) over ``mc_samples`` perturbation vectors, floored at
    ``rho`` so the importance-weighted estimator stays bounded."""
    if mc_samples < 1:
        raise ValueError("mc_samples must be >= 1")
    counts = _argmax_counts(np.asarray(G, dtype=float), eta, spec, mc_samples, rng)
    p = floor_probabilities([c / mc_samples for c in counts.tolist()], rho)
    return p if isinstance(G, list) else np.array(p)


def _argmax_counts(G: np.ndarray, eta: float, spec: PerturbationSpec, mc_samples: int, rng: np.random.Generator):
    K = G.size
    counts = np.zeros(K, dtype=np.int64)
    chunk = max(1, min(mc_samples, dist._PIECE // K))
    done = 0
    while done < mc_samples:
        m = min(chunk, mc_samples - done)
        z = dist.sample_array(spec, rng, (m, K))
        z *= eta  # in place: G + eta * z, with no temporaries
        z += G
        counts += np.bincount(z.argmax(axis=1), minlength=K)
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

    g_hat = [0.0] * K
    arms = []

    kind, eta, alpha = potential.kind, potential.eta, potential.alpha
    rho = 1e-4 / K
    nu = None
    try:
        # An overflowing numpy product raises FloatingPointError, an ArithmeticError.
        with np.errstate(over="raise"):
            for row in rewards.tolist():
                if kind == SHANNON:
                    p = choice_prob_shannon(g_hat, eta)
                elif kind == TSALLIS:
                    p, nu = _tsallis_probabilities(g_hat, eta, alpha, nu)
                else:
                    p = choice_prob_ftpl_mc(g_hat, eta, potential.spec, potential.mc_samples, rho, rng)
                cum = list(accumulate(p))
                # u < 1 keeps u * cum[-1] < cum[-1]; the bound K - 1 holds for a NaN total.
                arm = bisect_right(cum, rng.random() * cum[-1], 0, K - 1)
                g_hat[arm] += row[arm] / p[arm]
                arms.append(arm)
    except ArithmeticError as exc:
        raise ValueError(f"{potential.label()} at eta={eta:g} failed: {exc}") from None
    # A NaN or infinity stays in the estimate once it enters it.
    if not all(map(math.isfinite, g_hat)):
        raise ValueError(f"{potential.label()} at eta={eta:g}: the reward estimate is not finite")
    arms = np.array(arms, dtype=np.int64)
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
