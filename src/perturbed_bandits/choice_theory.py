"""Numerical checks of the discrete-choice theory behind perturbation
algorithms: the four-arm barrier for Tsallis choice probabilities, the
first/second-derivative structure of the choice map, and the two-armed
regularizer-to-perturbation correspondence."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from .adversarial import SHANNON, TSALLIS, _argmax_counts, _tsallis_gap, choice_prob_shannon, choice_prob_tsallis

_JACOBIAN_STEP = 1e-4  # central-difference step of the choice-map Jacobian


# ---------------------------------------------------------------------------
# Four-arm barrier: the mixed second partial that must be positive but is not
# ---------------------------------------------------------------------------


def wdz_counterexample_value(alpha: float, eps: float) -> float:
    """Closed-form sign witness for the mixed second partial of the Tsallis
    choice map at the probe point (eps, eps, eps, 1-3*eps).

    Negative values violate the alternating-sign derivative condition that
    every perturbation-realizable choice map must satisfy, so a negative
    value proves no perturbation distribution induces the Tsallis map at
    this alpha.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not 0.0 < eps < 1.0 / 3.0:
        raise ValueError("eps must lie in (0, 1/3) to keep the probe point interior")
    pre = ((1.0 - alpha) / alpha) ** ((3.0 - 2.0 * alpha) / (1.0 - alpha))
    rest = 1.0 - 3.0 * eps
    return pre * (
        6.0 * eps ** (3.0 - 2.0 * alpha)
        + 3.0 * eps ** (1.0 - alpha) * rest ** (2.0 - alpha)
        - rest ** (3.0 - 2.0 * alpha)
    )


def wdz_sign_change_exists(alpha: float) -> bool:
    """Whether the sign witness changes sign somewhere on eps in (0, 1/3).

    The negative region shrinks towards 0 as alpha grows (it needs
    3 eps^(1-alpha) < 1, i.e. eps below 3^(-1/(1-alpha))), so the scan is
    geometric down to very small eps.
    """
    eps = np.geomspace(1e-18, 1.0 / 3.0 - 1e-4, 800)
    vals = np.array([wdz_counterexample_value(alpha, float(e)) for e in eps])
    return bool(vals.min() < 0.0 < vals.max())


def tsallis_choice_inverse(target: np.ndarray, alpha: float) -> np.ndarray:
    """Score vector G (normalized to min G = 0) whose Tsallis choice
    probabilities at unit learning rate equal ``target``."""
    target = np.asarray(target, dtype=float)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if np.any(target <= 0.0) or np.any(target >= 1.0) or abs(target.sum() - 1.0) > 1e-9:
        raise ValueError("target must be an interior point of the simplex")
    depth = _tsallis_gap(target, alpha)
    return depth.max() - depth


def wdz_fd_mixed_partial(
    G: np.ndarray,
    alpha: float,
    i0: int,
    i1: int,
    i2: int,
) -> tuple[float, float]:
    """Mixed second partial d^2 C_{i0} / dG_{i1} dG_{i2} of the Tsallis choice
    map at unit learning rate, by a Richardson-extrapolated central stencil,
    and the extrapolation residual |stencil(h/2) - stencil(h)|, a combined
    truncation/roundoff estimate."""
    if len({i0, i1, i2}) != 3:
        raise ValueError("i0, i1, i2 must be distinct arm indices")
    G = np.asarray(G, dtype=float)
    # The probe's mixed partial is tiny: a coarse step keeps it above roundoff.
    h = 1e-3

    def component(step1: float, step2: float) -> float:
        g = G.copy()
        g[i1] += step1
        g[i2] += step2
        return float(choice_prob_tsallis(g, 1.0, alpha)[i0])

    def stencil(s: float) -> float:
        return (
            component(s, s) - component(s, -s) - component(-s, s) + component(-s, -s)
        ) / (4.0 * s * s)

    coarse = stencil(h)
    fine = stencil(h / 2.0)
    return (4.0 * fine - coarse) / 3.0, abs(fine - coarse)


def wdz_fd_derivative_matrix(G: np.ndarray, alpha: float) -> np.ndarray:
    """First-derivative matrix D[i, j] = dC_i/dG_j by central differences."""
    G = np.asarray(G, dtype=float)
    K = G.size
    D = np.empty((K, K))
    for j in range(K):
        up = G.copy()
        dn = G.copy()
        up[j] += _JACOBIAN_STEP
        dn[j] -= _JACOBIAN_STEP
        D[:, j] = (choice_prob_tsallis(up, 1.0, alpha) - choice_prob_tsallis(dn, 1.0, alpha)) / (2.0 * _JACOBIAN_STEP)
    return D


@dataclass(frozen=True)
class WdzCheckResult:
    """Closed form versus finite difference at one (alpha, eps) probe point."""

    alpha: float
    eps: float
    closed_form_value: float
    fd_mixed_partial: float
    passes_condition4: bool

    @property
    def signs_agree(self) -> bool:
        return self.closed_form_value * self.fd_mixed_partial > 0.0


def check_wdz_probe(alpha: float, eps: float) -> WdzCheckResult:
    """Evaluate the sign witness and its finite-difference counterpart at the
    four-arm probe point with choice probabilities (eps, eps, eps, 1-3*eps).

    The mixed partial at this probe is tiny (each small choice probability
    contributes a power of eps), so an absolute cancellation floor in h alone
    would misclassify it; the guard instead requires the Richardson residual
    to be well below the extrapolated value, i.e. the sign to be resolved.
    """
    value = wdz_counterexample_value(alpha, eps)
    target = np.array([eps, eps, eps, 1.0 - 3.0 * eps])
    G = tsallis_choice_inverse(target, alpha)
    fd, err = wdz_fd_mixed_partial(G, alpha, 0, 1, 2)
    if abs(fd) < 10.0 * err:
        raise ArithmeticError(
            f"mixed partial {fd:.3e} not resolved beyond fd noise {err:.1e}"
        )
    return WdzCheckResult(
        alpha=alpha,
        eps=eps,
        closed_form_value=value,
        fd_mixed_partial=fd,
        passes_condition4=fd > 0.0,
    )


@dataclass(frozen=True)
class DerivativeMatrixChecks:
    """Structural checks of the choice-map Jacobian at one score vector."""

    symmetry_error: float
    row_sum_error: float
    min_tangent_eigenvalue: float
    off_diagonal_max: float
    tolerance: float


def check_derivative_matrix(G: np.ndarray, alpha: float) -> DerivativeMatrixChecks:
    """Symmetry, zero row sums, negative cross effects, and positive
    semidefiniteness on the simplex tangent space of the fd Jacobian."""
    D = wdz_fd_derivative_matrix(G, alpha)
    K = D.shape[0]
    sym = float(np.abs(D - D.T).max())
    rows = float(np.abs(D.sum(axis=1)).max())
    off = float(np.max(D[~np.eye(K, dtype=bool)]))
    # Tangent basis: differences of consecutive coordinates span {x : sum x = 0}.
    B = np.zeros((K, K - 1))
    for j in range(K - 1):
        B[j, j] = 1.0
        B[j + 1, j] = -1.0
    S = 0.5 * (D + D.T)
    eigs = np.linalg.eigvalsh(B.T @ S @ B)
    return DerivativeMatrixChecks(
        symmetry_error=sym,
        row_sum_error=rows,
        min_tangent_eigenvalue=float(eigs.min()),
        off_diagonal_max=off,
        tolerance=10.0 * _JACOBIAN_STEP * _JACOBIAN_STEP,
    )


# ---------------------------------------------------------------------------
# Two-armed correspondence: regularizer <-> perturbation-difference CDF
# ---------------------------------------------------------------------------


def tsallis_two_arm_z(u: float, alpha: float) -> float:
    """Forward map z(u) = (alpha/(1-alpha)) ((1-u)^(alpha-1) - u^(alpha-1));
    strictly increasing on (0, 1), so it is a quantile function."""
    if not 0.0 < u < 1.0:
        raise ValueError("u must lie in (0, 1)")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return _tsallis_gap(1.0 - u, alpha) - _tsallis_gap(u, alpha)


def tsallis_two_arm_density(u: float, alpha: float) -> float:
    """Implicit density f(z(u)) = 1 / (alpha ((1-u)^(alpha-2) + u^(alpha-2)))."""
    if not 0.0 < u < 1.0:
        raise ValueError("u must lie in (0, 1)")
    return 1.0 / (alpha * ((1.0 - u) ** (alpha - 2.0) + u ** (alpha - 2.0)))


def two_arm_cdf_from_regularizer(regularizer: str, z: float, alpha: float = 0.5) -> float:
    """CDF of the perturbation difference realizing a two-arm choice map.

    Shannon entropy corresponds to the Logistic CDF; Tsallis entropy to the
    implicit CDF obtained by inverting the strictly increasing quantile map
    by bisection to 1e-12.
    """
    if regularizer == SHANNON:
        # The logistic 1 / (1 + e^-z) through a log-sum that no finite z overflows.
        return math.exp(-np.logaddexp(0.0, -z))
    if regularizer != TSALLIS:
        raise ValueError(f"unknown regularizer: {regularizer!r}")
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if tsallis_two_arm_z(mid, alpha) < z:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def tail_index_check(alpha: float, u_sequence) -> list[tuple[float, float]]:
    """Polynomial-tail criterion z f(z) / (1 - F(z)) along u -> 1.

    For the Tsallis-derived implicit CDF the limit is 1/(1-alpha), the
    signature of a polynomial (heavy) upper tail with index alpha/(1-alpha).
    """
    u_sequence = list(u_sequence)
    if not u_sequence or any(not 0.0 < u < 1.0 for u in u_sequence):
        raise ValueError("u_sequence entries must lie in (0, 1)")
    if any(b <= a for a, b in zip(u_sequence, u_sequence[1:])):
        raise ValueError("u_sequence must be strictly increasing")
    out = []
    for u in u_sequence:
        z = tsallis_two_arm_z(u, alpha)
        crit = z * tsallis_two_arm_density(u, alpha) / (1.0 - u)
        out.append((z, crit))
    return out


def logistic_tail_criterion(u: float) -> float:
    """Same criterion for the Logistic CDF: z f/(1-F) = z u, which diverges
    as u -> 1 (exponential tail, not polynomial)."""
    if not 0.0 < u < 1.0:
        raise ValueError("u must lie in (0, 1)")
    return (math.log(u) - math.log1p(-u)) * u


def gumbel_softmax_equivalence(
    G: np.ndarray, eta: float, M: int, rng: np.random.Generator
) -> float:
    """Sup-norm distance between raw Monte-Carlo argmax frequencies under
    standard Gumbel perturbations and the softmax of G/eta."""
    if M < 10_000:
        raise ValueError("need at least 1e4 Monte-Carlo samples")
    G = np.asarray(G, dtype=float)
    counts = _argmax_counts(G, eta, dist.gumbel(), M, rng)
    return float(np.abs(counts / M - choice_prob_shannon(G, eta)).max())


# ---------------------------------------------------------------------------
# Batch verification (used by the command-line theory check)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoryCheckRow:
    name: str
    value: float
    target: str
    passed: bool


def run_theory_checks(seed: int = 0) -> list[TheoryCheckRow]:
    """Every numeric theory claim as one pass/fail row."""
    rng = np.random.default_rng(seed)
    rows: list[TheoryCheckRow] = []

    v_neg = wdz_counterexample_value(0.5, 0.01)
    rows.append(TheoryCheckRow("barrier witness alpha=0.5 eps=0.01", v_neg, "< 0", v_neg < 0.0))
    v_pos = wdz_counterexample_value(0.5, 0.25)
    rows.append(TheoryCheckRow("barrier witness alpha=0.5 eps=0.25", v_pos, "> 0", v_pos > 0.0))
    for a in (0.1, 0.3, 0.5, 0.7, 0.9):
        ok = wdz_sign_change_exists(a)
        rows.append(TheoryCheckRow(f"barrier sign change alpha={a:g}", float(ok), "sign change on (0,1/3)", ok))

    probe = check_wdz_probe(0.5, 0.01)
    rows.append(
        TheoryCheckRow(
            "fd mixed partial sign at probe point",
            probe.fd_mixed_partial,
            "same sign as closed form",
            probe.signs_agree and not probe.passes_condition4,
        )
    )

    for trial in range(10):
        G = rng.normal(size=2)
        D = wdz_fd_derivative_matrix(G, 0.5)
        rows.append(
            TheoryCheckRow(
                f"two-arm cross derivative < 0 (trial {trial})", float(D[0, 1]), "< 0", D[0, 1] < 0.0
            )
        )

    G4 = rng.normal(size=4)
    checks = check_derivative_matrix(G4, 0.5)
    rows.append(
        TheoryCheckRow("jacobian symmetry error", checks.symmetry_error, f"<= {checks.tolerance:g}",
                       checks.symmetry_error <= checks.tolerance)
    )
    rows.append(
        TheoryCheckRow("jacobian row-sum error", checks.row_sum_error, f"<= {checks.tolerance:g}",
                       checks.row_sum_error <= checks.tolerance)
    )
    rows.append(
        TheoryCheckRow("jacobian tangent-space min eigenvalue", checks.min_tangent_eigenvalue,
                       f">= -{checks.tolerance:g}",
                       checks.min_tangent_eigenvalue >= -checks.tolerance)
    )

    u = two_arm_cdf_from_regularizer(TSALLIS, tsallis_two_arm_z(0.9, 0.5), 0.5)
    rows.append(TheoryCheckRow("tsallis two-arm CDF round trip u=0.9", u, "|u-0.9| <= 1e-9", abs(u - 0.9) <= 1e-9))
    sh = two_arm_cdf_from_regularizer(SHANNON, 1.0)
    rows.append(TheoryCheckRow("shannon two-arm CDF(1)", sh, "logistic(1)",
                               abs(sh - 1.0 / (1.0 + math.exp(-1.0))) <= 1e-12))

    for a in (0.3, 0.5):
        target = 1.0 / (1.0 - a)
        (_, crit) = tail_index_check(a, [1.0 - 1e-6])[0]
        ok = abs(crit - target) <= 0.01 * target
        rows.append(
            TheoryCheckRow(f"tail criterion alpha={a:g} at u=1-1e-6", crit, f"within 1% of {target:g}", ok)
        )
    # alpha = 0.9 converges too slowly to hit its limit 10 by u = 1-1e-6;
    # the checkable claim is monotone approach from below.
    crits = [c for _, c in tail_index_check(0.9, [1.0 - 10.0**-k for k in range(2, 8)])]
    mono = all(b > a for a, b in zip(crits, crits[1:])) and crits[-1] < 10.0
    rows.append(
        TheoryCheckRow("tail criterion alpha=0.9 monotone toward 10", crits[-1], "increasing, < 10", mono)
    )
    log_crit = logistic_tail_criterion(1.0 - 1e-6)
    rows.append(
        TheoryCheckRow("logistic tail criterion diverges", log_crit, "> 10 (no polynomial tail)", log_crit > 10.0)
    )

    dev = gumbel_softmax_equivalence(rng.normal(size=5), 1.0, 1_000_000, rng)
    rows.append(TheoryCheckRow("gumbel-argmax vs softmax sup gap (M=1e6)", dev, "<= 5e-3", dev <= 5e-3))
    return rows


def rows_to_text(rows: list[TheoryCheckRow]) -> str:
    lines = []
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name}: value={r.value:.6g} (target {r.target})")
    return "\n".join(lines) + "\n"
