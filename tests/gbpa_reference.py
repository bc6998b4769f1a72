"""The GBPA loop and its three choice-probability kernels on numpy arrays,
as the package computed them before its rounds moved to lists of K Python
floats.  Kept as the oracle of ``adversarial.run_gbpa``: the two give the
same arms, while their probabilities may differ in the last bits.  The file
name keeps pytest from collecting it."""
import math

import numpy as np

from perturbed_bandits import adversarial as adv


def shannon(G: np.ndarray, eta: float) -> np.ndarray:
    """Softmax of G / eta with max subtraction."""
    z = np.asarray(G, dtype=float) / eta
    z = z - z.max()
    w = np.exp(z)
    return w / w.sum()


def tsallis_log_terms(gap: np.ndarray, alpha: float) -> np.ndarray:
    return 1.0 / (alpha - 1.0) * (math.log((1.0 - alpha) / alpha) + np.log(gap))


def tsallis_log_sum(nu: float, shifted: np.ndarray, alpha: float) -> tuple[float, float]:
    e = 1.0 / (alpha - 1.0)
    gap = nu - shifted
    log_terms = tsallis_log_terms(gap, alpha)
    top = float(log_terms.max())
    w = np.exp(log_terms - top)
    total = float(w.sum())
    g = top + math.log(total)
    dg = float((w * (e / gap)).sum()) / total
    return g, dg


def solve_tsallis_nu(shifted: np.ndarray, alpha: float, nu0: float | None = None) -> float:
    """Root of log S(nu) = 0, the bracket's right end found before the first step."""
    scale = max(1.0, float(-shifted.min()))
    lo = 1e-300
    at_nu0 = tsallis_log_sum(nu0, shifted, alpha) if nu0 is not None and nu0 > 0 else None
    if at_nu0 is not None and at_nu0[0] >= 0.0:
        lo = nu0
    hi = max(lo, 0.0) + scale
    while tsallis_log_sum(hi, shifted, alpha)[0] > 0.0:
        hi *= 2.0
    if nu0 is not None and lo <= nu0 <= hi:
        nu = max(nu0, 1e-12)
    else:
        nu = 0.5 * (max(lo, 1e-12) + hi)
    g, dg = at_nu0 if at_nu0 is not None and nu == nu0 else tsallis_log_sum(nu, shifted, alpha)
    for _ in range(200):
        if abs(g) <= 1e-13:
            break
        step = nu - g / dg if dg < 0.0 else math.inf
        nu = step if (lo < step < hi and np.isfinite(step)) else 0.5 * (lo + hi)
        g, dg = tsallis_log_sum(nu, shifted, alpha)
        if g > 0.0:
            lo = nu
        else:
            hi = nu
    bracket_collapsed = hi - lo <= 16.0 * np.finfo(float).eps * max(1.0, hi)
    if abs(g) > 1e-12 and not bracket_collapsed:
        raise ArithmeticError(f"tsallis normalization residual {abs(math.expm1(g)):.2e}")
    return float(nu)


def tsallis(G: np.ndarray, eta: float, alpha: float, nu0: float | None = None) -> tuple[np.ndarray, float]:
    shifted = G / eta
    shifted = shifted - shifted.max()
    nu = solve_tsallis_nu(shifted, alpha, nu0)
    with np.errstate(over="ignore"):
        p = np.exp(tsallis_log_terms(nu - shifted, alpha))
    return p / p.sum(), nu


def floor_probabilities(p: np.ndarray, rho: float) -> np.ndarray:
    out = np.maximum(p, rho)
    excess = out.sum() - 1.0
    if excess > 0.0:
        slack = out - rho
        total = slack.sum()
        if total > 0.0:
            out = out - excess * slack / total
    return out


def ftpl_mc(G, eta, spec, mc_samples, rho, rng) -> np.ndarray:
    counts = adv._argmax_counts(G, eta, spec, mc_samples, rng)
    return floor_probabilities(counts / mc_samples, rho)


def run_gbpa(rewards: np.ndarray, potential: adv.PotentialSpec, seed) -> np.ndarray:
    """The arms ``adversarial.run_gbpa`` plays, computed on arrays."""
    T, K = rewards.shape
    rng = np.random.default_rng(seed)
    g_hat = np.zeros(K)
    arms = np.empty(T, dtype=np.int64)
    rho = 1e-4 / K
    nu = None
    for t in range(T):
        if potential.kind == adv.SHANNON:
            p = shannon(g_hat, potential.eta)
        elif potential.kind == adv.TSALLIS:
            p, nu = tsallis(g_hat, potential.eta, potential.alpha, nu)
        else:
            p = ftpl_mc(g_hat, potential.eta, potential.spec, potential.mc_samples, rho, rng)
        u = rng.random()
        arm = min(int(p.cumsum().searchsorted(u * p.sum(), side="right")), K - 1)
        g_hat[arm] += rewards[t, arm] / p[arm]
        arms[t] = arm
    return arms
