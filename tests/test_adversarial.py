import math
import tracemalloc

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import gbpa_reference as ref
from perturbed_bandits import adversarial as adv
from perturbed_bandits import distributions as dist
from perturbed_bandits import harness as hz
from perturbed_bandits import stochastic as st


class TestRewardMatrices:
    def test_entries_validated(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            adv.validate_reward_matrix(np.full((3, 2), 1.5))
        with pytest.raises(ValueError, match="T x K"):
            adv.validate_reward_matrix(np.zeros(5))

    def test_generators(self):
        np.testing.assert_array_equal(adv.make_constant_rewards(4, 3), np.full((4, 3), 0.5))
        single = adv.make_single_best_arm_rewards(5, 3)
        np.testing.assert_array_equal(single.sum(axis=0), [5.0, 0.0, 0.0])
        iid = adv.make_iid_rewards(10, 2, seed=0)
        np.testing.assert_array_equal(iid, adv.make_iid_rewards(10, 2, seed=0))


class TestShannon:
    def test_uniform(self):
        np.testing.assert_allclose(adv.choice_prob_shannon(np.zeros(3), 2.0), 1.0 / 3.0)

    def test_two_arm_closed_form(self):
        p = adv.choice_prob_shannon(np.array([1.0, 0.0]), 1.0)
        np.testing.assert_allclose(p, [math.e / (1 + math.e), 1 / (1 + math.e)], atol=1e-12)

    def test_shift_invariance(self):
        g = np.array([1.0, 0.0, -2.0])
        np.testing.assert_allclose(
            adv.choice_prob_shannon(g, 1.0), adv.choice_prob_shannon(g + 17.0, 1.0), atol=1e-9
        )

    def test_overflow_safe(self):
        p = adv.choice_prob_shannon(np.array([2000.0, 0.0]), 1.0)
        assert np.isfinite(p).all() and p.sum() == pytest.approx(1.0)


class TestTsallis:
    def test_symmetric_two_arm_lambda(self):
        # lam = max(G) + nu, and max(G) = 0 here.
        lam = adv._solve_tsallis_nu([0.0, 0.0], 0.5)
        assert lam == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_symmetric_probabilities(self):
        for alpha in (0.2, 0.5, 0.8):
            p = adv.choice_prob_tsallis(np.zeros(4), 1.0, alpha)
            np.testing.assert_allclose(p, 0.25, atol=1e-12)

    def test_lambda_exceeds_max_and_residual_small(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            G = rng.normal(scale=5.0, size=5)
            lam = G.max() + adv._solve_tsallis_nu((G - G.max()).tolist(), 0.5)
            assert lam > G.max()
            c = ((1 - 0.5) / 0.5) ** (1 / (0.5 - 1))
            residual = abs(np.sum(c * (lam - G) ** (1 / (0.5 - 1))) - 1.0)
            assert residual <= 1e-12

    def test_large_scores_no_cancellation(self):
        G = np.array([1e5, 1e5 - 3.0, 1e5 - 10.0])
        p = adv.choice_prob_tsallis(G, 1.0, 0.5)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(p > 0.0)

    def test_eta_scaling_matches_rescaled_scores(self):
        G = np.array([3.0, 1.0, 0.0])
        np.testing.assert_allclose(
            adv.choice_prob_tsallis(G, 2.0, 0.5),
            adv.choice_prob_tsallis(G / 2.0, 1.0, 0.5),
            atol=1e-12,
        )

    def test_shift_invariance(self):
        G = np.array([3.0, 1.0, 0.0])
        np.testing.assert_allclose(
            adv.choice_prob_tsallis(G, 1.0, 0.5),
            adv.choice_prob_tsallis(G - 41.0, 1.0, 0.5),
            atol=1e-9,
        )

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=hs.floats(0.05, 0.95),
        G=hs.lists(hs.floats(-1e6, 1e6), min_size=2, max_size=8),
        shift=hs.floats(-1e6, 1e6),
    )
    def test_probabilities_valid_and_shift_invariant(self, alpha, G, shift):
        G = np.array(G)
        p = adv.choice_prob_tsallis(G, 1.0, alpha)
        assert np.all(p > 0.0)
        assert abs(p.sum() - 1.0) <= 1e-12
        # G + shift is rounded to the precision of its magnitude, and each
        # solve stops at a log-residual of 1e-13.
        scale = max(np.abs(G).max(), abs(shift))
        atol = 1e-12 + 64 * np.finfo(float).eps * scale
        np.testing.assert_allclose(adv.choice_prob_tsallis(G + shift, 1.0, alpha), p, rtol=0.0, atol=atol)

    def test_solver_cost_is_pinned(self, monkeypatch):
        # The log-sum evaluations of one fixed run (2.91 per round).  A
        # solver that reaches the same root more slowly, a halved Newton step
        # say, passes every other test but not this count.
        calls = []
        log_sum = adv._tsallis_log_sum
        monkeypatch.setattr(adv, "_tsallis_log_sum", lambda *args: calls.append(1) or log_sum(*args))
        adv.run_gbpa(adv.make_single_best_arm_rewards(2000, 10), adv.PotentialSpec("tsallis", eta=50.0, alpha=0.5), 7)
        assert len(calls) == 5822

    def test_alpha_near_one_approaches_softmax(self):
        p = adv.choice_prob_tsallis(np.array([1.0, 0.0]), 1.0, 0.999)
        q = adv.choice_prob_shannon(np.array([1.0, 0.0]), 1.0)
        assert np.abs(p - q).max() < 1e-2

    def test_alpha_domain(self):
        # run_gbpa's Tsallis rounds are unchecked; the potential checks alpha once.
        with pytest.raises(ValueError, match="alpha must lie in"):
            adv.PotentialSpec("tsallis", alpha=1.5)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5])
    def test_choice_prob_alpha_domain(self, alpha):
        with pytest.raises(ValueError, match="alpha must lie in"):
            adv.choice_prob_tsallis(np.zeros(2), 1.0, alpha)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_scores_rejected(self, bad):
        G = np.array([0.0, bad])
        with pytest.raises(ValueError, match="finite"):
            adv.choice_prob_tsallis(G, 1.0, 0.5)

    @pytest.mark.parametrize("G", [[1e308, 0.0], [-1e308, 0.0], [1e308, 1e308]])
    def test_overflowing_scores_rejected(self, G):
        # Finite G whose G / eta overflows fails closed instead of returning NaN.
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="too large"):
            adv.choice_prob_tsallis(np.array(G), 0.5, 0.5)


class TestFtplMc:
    def test_uniform_scores(self):
        p = adv.choice_prob_ftpl_mc(
            np.zeros(4), 1.0, dist.gaussian(1.0), 40_000, 1e-6, np.random.default_rng(0)
        )
        np.testing.assert_allclose(p, 0.25, atol=3.0 / math.sqrt(40_000) + 1e-9)

    def test_gumbel_matches_softmax(self):
        p = adv.choice_prob_ftpl_mc(
            np.array([1.0, 0.0]), 1.0, dist.gumbel(), 10**6, 1e-8, np.random.default_rng(1)
        )
        np.testing.assert_allclose(p, [0.731, 0.269], atol=0.003)

    def test_single_sample_gives_floored_vertex(self):
        rho = 1e-3
        p = adv.choice_prob_ftpl_mc(
            np.array([10.0, 0.0, 0.0]), 1.0, dist.gaussian(1.0), 1, rho, np.random.default_rng(2)
        )
        assert sorted(p)[:2] == [rho, rho]
        assert p.max() == pytest.approx(1.0 - 2 * rho)

    def test_floor_bounds(self):
        rho = 1e-4
        p = adv.choice_prob_ftpl_mc(
            np.array([50.0, 0.0, -50.0]), 1.0, dist.gaussian(1.0), 1000, rho, np.random.default_rng(3)
        )
        assert p.min() >= rho
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_floor_domain(self):
        with pytest.raises(ValueError):
            adv.floor_probabilities([0.25] * 4, 0.3)

    @pytest.mark.parametrize("spec", [dist.gumbel(), dist.gaussian()], ids=lambda s: s.kind)
    def test_argmax_counts_draw_a_piece_at_a_time(self, spec):
        # 2e5 rows of K=5 are 8 MB a temporary if drawn at once; in pieces of
        # _PIECE draws, the sampler and the index hold at most five pieces.
        G = np.random.default_rng(0).normal(size=5)
        tracemalloc.start()
        try:
            counts = adv._argmax_counts(G, 1.0, spec, 200_000, np.random.default_rng(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts.sum() == 200_000
        assert peak <= 5 * dist._PIECE * 8


@pytest.mark.parametrize(
    "call",
    [
        lambda: adv.choice_prob_shannon(np.zeros(3), math.inf),
        lambda: adv.choice_prob_tsallis(np.zeros(3), math.inf, 0.5),
        lambda: st.select_ftpl_bounded(
            st.LearnerState(np.zeros(2, dtype=np.int64), np.zeros(2)), dist.uniform(), 100, math.inf,
            np.random.default_rng(0)
        ),
    ],
    ids=["shannon-eta", "tsallis-eta", "ftpl_bounded-epsilon"],
)
def test_infinite_parameter_rejected(call):
    with pytest.raises(ValueError, match="finite"):
        call()


EPS = np.finfo(float).eps


@hs.composite
def floored_inputs(draw, low=0.0):
    """A normalized probability vector p of size K, from weights of at least
    ``low``, and a floor rho in (0, 1/K)."""
    K = draw(hs.integers(2, 64))
    weights = np.array(draw(hs.lists(hs.floats(low, 1.0), min_size=K, max_size=K)))
    if draw(hs.booleans()):  # many entries below any floor
        weights = weights**8
    hypothesis.assume(weights.sum() > 0.0)
    rho = draw(hs.floats(0.0, 1.0, exclude_min=True, exclude_max=True)) / K
    hypothesis.assume(0.0 < rho < 1.0 / K)
    return weights / weights.sum(), rho


def floored(p: np.ndarray, rho: float) -> np.ndarray:
    return np.array(adv.floor_probabilities(p.tolist(), rho))


class TestFloorProbabilities:
    """Properties of ``floor_probabilities`` (given a list, read back as an
    array) for any K, normalized p and rho in (0, 1/K).  Tolerances come from
    rounding alone: each of the K entries (all at most 1) goes through about
    five roundings of relative size eps (the normalization of p, the slack,
    the product and quotient, the subtraction) and the sum adds one more per
    entry, so a sum is off by at most a few K*eps and a single entry by a few
    eps; 8*K*eps and 8*eps leave a margin over that count."""

    @settings(max_examples=300, deadline=None)
    @given(floored_inputs())
    def test_sums_to_one(self, inputs):
        p, rho = inputs
        assert abs(floored(p, rho).sum() - 1.0) <= 8 * p.size * EPS

    @settings(max_examples=300, deadline=None)
    @given(floored_inputs())
    def test_every_entry_at_least_the_floor(self, inputs):
        p, rho = inputs
        assert floored(p, rho).min() >= rho - 8 * EPS

    @settings(max_examples=300, deadline=None)
    @given(floored_inputs())
    def test_order_kept(self, inputs):
        p, rho = inputs
        out = floored(p, rho)
        assert np.all(np.diff(out[np.argsort(p, kind="stable")]) >= -8 * EPS)

    @settings(max_examples=300, deadline=None)
    @given(floored_inputs(low=1e-3), hs.floats(1e-3, 1.0))
    def test_unchanged_when_no_entry_is_below_the_floor(self, inputs, fraction):
        p, _ = inputs
        rho = fraction * p.min()
        hypothesis.assume(0.0 < rho < 1.0 / p.size)
        np.testing.assert_allclose(floored(p, rho), p, rtol=0.0, atol=8 * p.size * EPS)


class TestIpw:
    """run_gbpa's update in its first round, where the estimate is zero and the
    Shannon probabilities are uniform: the played arm's reward over its
    probability, zero elsewhere.  The estimate is read as the score vector
    (a list of K floats) that round 2 hands to the Shannon gradient."""

    REWARDS = np.array([[0.3, 0.8, 0.5], [0.0, 0.0, 0.0]])
    POTENTIAL = adv.PotentialSpec("shannon", eta=2.0)

    @pytest.fixture
    def one_round(self, monkeypatch):
        """seed, rewards -> (round 1's arm, the estimate after round 1)."""
        seen = []
        shannon = adv.choice_prob_shannon
        monkeypatch.setattr(adv, "choice_prob_shannon", lambda G, eta: seen.append(G.copy()) or shannon(G, eta))

        def play(seed, rewards=self.REWARDS):
            seen.clear()
            _, arms = adv.run_gbpa(rewards, self.POTENTIAL, seed)
            np.testing.assert_array_equal(seen[0], 0.0)
            return int(arms[0]), np.array(seen[1])

        return play

    def test_definition(self, one_round):
        p = adv.choice_prob_shannon(np.zeros(3), self.POTENTIAL.eta)
        for seed in range(10):
            arm, g_hat = one_round(seed)
            expected = np.zeros(3)
            expected[arm] = self.REWARDS[0, arm] / p[arm]
            np.testing.assert_array_equal(g_hat, expected)

    def test_zero_reward(self, one_round):
        for seed in range(5):
            np.testing.assert_array_equal(one_round(seed, np.zeros((2, 3)))[1], 0.0)

    def test_one_round_estimate_is_unbiased(self, one_round):
        # Weighting the estimate after each arm by that arm's probability
        # recovers the whole reward vector.
        p = adv.choice_prob_shannon(np.zeros(3), self.POTENTIAL.eta)
        after = {}
        for seed in range(50):
            arm, g_hat = one_round(seed)
            after[arm] = g_hat
        assert sorted(after) == [0, 1, 2]
        mean = sum(p[arm] * g_hat for arm, g_hat in after.items())
        np.testing.assert_allclose(mean, self.REWARDS[0], rtol=1e-15)


# A NaN or infinite value of each range-checked parameter of a library object.
NONFINITE_CASES = {
    "gaussian-sigma": lambda v: dist.PerturbationSpec("gaussian", sigma=v),
    "pareto-alpha": lambda v: dist.PerturbationSpec("pareto", alpha=v),
    "frechet-alpha": lambda v: dist.PerturbationSpec("frechet", alpha=v),
    "rcb-epsilon": lambda v: st.PolicyConfig("rcb", dist.uniform(), epsilon=v),
    "shannon-eta": lambda v: adv.PotentialSpec("shannon", eta=v),
    "tune_eta-sup_h": lambda v: adv.tune_eta(10, 100, v, 1.0),
    "tune_eta-e_mk": lambda v: adv.tune_eta(10, 100, 1.0, v),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("build", NONFINITE_CASES.values(), ids=NONFINITE_CASES.keys())
def test_nonfinite_parameters_rejected(build, bad):
    with pytest.raises(ValueError, match="finite"):
        build(bad)


class TestTuneEta:
    def test_balance_point(self):
        assert adv.tune_eta(2, 5, 1.0, 10.0) == 1.0

    def test_gumbel_k10(self):
        e_mk = math.log(10) + np.euler_gamma
        assert adv.tune_eta(10, 1000, 1.0, e_mk) == pytest.approx(58.93, abs=0.01)

    def test_doubling_horizon(self):
        assert adv.tune_eta(5, 2000, 1.0, 3.0) == pytest.approx(
            math.sqrt(2.0) * adv.tune_eta(5, 1000, 1.0, 3.0)
        )


class TestRunGbpa:
    def test_constant_rewards_zero_regret(self):
        rewards = adv.make_constant_rewards(500, 4)
        pot = adv.PotentialSpec("shannon", eta=10.0)
        regs = [adv.run_gbpa(rewards, pot, seed=s)[0] for s in range(20)]
        assert abs(np.mean(regs)) < 1e-9

    def test_reproducible(self):
        rewards = adv.make_single_best_arm_rewards(300, 4)
        pot = adv.PotentialSpec("tsallis", eta=10.0, alpha=0.5)
        r1, arms1 = adv.run_gbpa(rewards, pot, seed=7)
        r2, arms2 = adv.run_gbpa(rewards, pot, seed=7)
        assert r1 == r2
        np.testing.assert_array_equal(arms1, arms2)

    def test_state_accounting(self):
        rewards = adv.make_iid_rewards(200, 3, seed=0)
        regret, arms = adv.run_gbpa(rewards, adv.PotentialSpec("shannon", eta=5.0), seed=1)
        assert arms.size == 200
        realized = rewards[np.arange(200), arms].sum()
        assert regret == pytest.approx(rewards.sum(0).max() - realized)

    def test_shannon_sublinear_on_single_best_arm(self):
        K = 5
        regs = {}
        for T in (1000, 4000):
            rewards = adv.make_single_best_arm_rewards(T, K)
            eta = adv.tune_eta(K, T, 1.0, math.log(K) + np.euler_gamma)
            pot = adv.PotentialSpec("shannon", eta=eta)
            regs[T] = np.mean([adv.run_gbpa(rewards, pot, seed=s)[0] for s in range(20)])
        assert regs[4000] / 4000 < regs[1000] / 1000
        assert regs[4000] < 2000

    def test_potential_validation(self):
        with pytest.raises(ValueError):
            adv.PotentialSpec("shannon", eta=0.0)
        with pytest.raises(ValueError):
            adv.PotentialSpec("tsallis", eta=1.0, alpha=1.2)
        with pytest.raises(ValueError):
            adv.PotentialSpec("ftpl", eta=1.0)

    def test_regret_at_checkpoints(self):
        rewards = adv.make_single_best_arm_rewards(100, 3)
        arms = np.full(100, 1)  # always the wrong arm
        out = adv.regret_at_checkpoints(rewards, arms, [10, 100])
        np.testing.assert_allclose(out, [10.0, 100.0])

    @pytest.mark.parametrize("checkpoints", [[0, 1, 5], [1, 6], [-1], [5, 0]])
    def test_regret_at_checkpoints_outside_the_run_rejected(self, checkpoints):
        # Checkpoint 0 would read row -1 (the regret at T), and one past the
        # run would raise a bare IndexError.
        rewards = adv.make_single_best_arm_rewards(5, 2)
        with pytest.raises(ValueError, match=r"checkpoints must lie in \[1, 5\]"):
            adv.regret_at_checkpoints(rewards, np.ones(5, dtype=np.int64), checkpoints)

    def test_tiny_shannon_eta_follows_the_leader(self):
        # (G - max G) / eta is never positive, so eta = 1e-306 gives the
        # follow-the-leader probabilities of eta = 1e-300, not NaN.
        rewards = adv.make_iid_rewards(2000, 4, seed=1)
        arms = {eta: adv.run_gbpa(rewards, adv.PotentialSpec("shannon", eta=eta), 3)[1] for eta in (1e-306, 1e-300)}
        np.testing.assert_array_equal(arms[1e-306], arms[1e-300])
        assert np.bincount(arms[1e-306], minlength=4).max() > 1900

    def test_tsallis_failure_names_eta_and_alpha(self):
        rewards = adv.make_iid_rewards(500, 10, seed=1)
        with pytest.raises(ValueError, match=r"tsallis\(alpha=0.5\) at eta=1e-200"):
            adv.run_gbpa(rewards, adv.PotentialSpec("tsallis", eta=1e-200, alpha=0.5), 1)


@hs.composite
def gbpa_runs(draw):
    """A reward matrix from one of the adversaries, a potential of any kind
    with eta over four decades, and a seed."""
    K = draw(hs.integers(2, 12))
    T = draw(hs.integers(1, 500))
    seed = draw(hs.integers(0, 2**32 - 1))
    rewards = hz.ADVERSARIES[draw(hs.sampled_from(sorted(hz.ADVERSARIES)))](T, K, seed)
    kind = draw(hs.sampled_from([adv.SHANNON, adv.TSALLIS, adv.FTPL]))
    eta = 10.0 ** draw(hs.floats(-1.0, 3.0))
    if kind == adv.TSALLIS:
        alpha = draw(hs.one_of(hs.floats(0.01, 0.99), hs.floats(0.99, 0.9999)))
        potential = adv.PotentialSpec(kind, eta=eta, alpha=alpha)
    elif kind == adv.FTPL:
        spec = draw(hs.sampled_from([dist.gumbel(), dist.gaussian(1.0)]))
        potential = adv.PotentialSpec(kind, eta=eta, spec=spec, mc_samples=draw(hs.integers(1, 50)))
    else:
        potential = adv.PotentialSpec(kind, eta=eta)
    return rewards, potential, seed + 1


@settings(max_examples=100, deadline=None)
@given(gbpa_runs())
def test_run_gbpa_plays_the_arms_of_the_array_oracle(run):
    # The rounds on Python floats and the oracle's on arrays compute the
    # probabilities with other exp, log and summation orders, so p may
    # differ in its last bits; the arms may not differ at all.
    rewards, potential, seed = run
    np.testing.assert_array_equal(adv.run_gbpa(rewards, potential, seed)[1], ref.run_gbpa(rewards, potential, seed))


@settings(max_examples=200, deadline=None)
@given(
    G=hs.lists(hs.floats(-1e3, 1e3), min_size=2, max_size=12),
    eta=hs.floats(0.1, 1e3),
    alpha=hs.floats(0.05, 0.95),
)
def test_score_kernels_match_the_array_oracle(G, eta, alpha):
    # Entries differ by a few ulps of exp and of the sum, times |G| / eta
    # where (G - max G) / eta and G / eta - max(G / eta) round apart; each
    # Tsallis solve stops at a log-residual of 1e-13.
    scale = max(map(abs, G)) / eta
    np.testing.assert_allclose(
        adv.choice_prob_shannon(G, eta), ref.shannon(np.array(G), eta), rtol=16 * EPS * (len(G) + scale), atol=1e-300
    )
    np.testing.assert_allclose(
        adv._tsallis_probabilities(G, eta, alpha)[0], ref.tsallis(np.array(G), eta, alpha)[0], rtol=0.0, atol=1e-11
    )


@settings(max_examples=300, deadline=None)
@given(floored_inputs())
def test_floor_matches_the_array_oracle(inputs):
    p, rho = inputs
    np.testing.assert_allclose(floored(p, rho), ref.floor_probabilities(p, rho), rtol=0.0, atol=8 * p.size * EPS)
