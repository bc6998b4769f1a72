import math

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from perturbed_bandits import adversarial as adv
from perturbed_bandits import distributions as dist


class TestRewardMatrices:
    def test_entries_validated(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            adv.validate_reward_matrix(np.full((3, 2), 1.5))
        with pytest.raises(ValueError, match="T x K"):
            adv.validate_reward_matrix(np.zeros(5))

    def test_generators(self):
        assert adv.make_constant_rewards(4, 3, 0.5).shape == (4, 3)
        single = adv.make_single_best_arm_rewards(5, 3, best=1)
        np.testing.assert_array_equal(single.sum(axis=0), [0.0, 5.0, 0.0])
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
        lam = adv.solve_tsallis_lambda(np.zeros(2), 0.5)
        assert lam == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_symmetric_probabilities(self):
        for alpha in (0.2, 0.5, 0.8):
            p = adv.choice_prob_tsallis(np.zeros(4), 1.0, alpha)
            np.testing.assert_allclose(p, 0.25, atol=1e-12)

    def test_lambda_exceeds_max_and_residual_small(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            G = rng.normal(scale=5.0, size=5)
            lam = adv.solve_tsallis_lambda(G, 0.5)
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

    def test_alpha_near_one_approaches_softmax(self):
        p = adv.choice_prob_tsallis(np.array([1.0, 0.0]), 1.0, 0.999)
        q = adv.choice_prob_shannon(np.array([1.0, 0.0]), 1.0)
        assert np.abs(p - q).max() < 1e-2

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            adv.solve_tsallis_lambda(np.zeros(2), 1.5)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5])
    def test_choice_prob_alpha_domain(self, alpha):
        with pytest.raises(ValueError, match="alpha must lie in"):
            adv.choice_prob_tsallis(np.zeros(2), 1.0, alpha)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_scores_rejected(self, bad):
        G = np.array([0.0, bad])
        with pytest.raises(ValueError, match="finite"):
            adv.choice_prob_tsallis(G, 1.0, 0.5)
        with pytest.raises(ValueError, match="finite"):
            adv.solve_tsallis_lambda(G, 0.5)


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
            adv.floor_probabilities(np.full(4, 0.25), 0.3)


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


class TestFloorProbabilities:
    """Properties of ``floor_probabilities`` for any K, normalized p and rho
    in (0, 1/K).  Tolerances come from rounding alone: each of the K entries
    (all at most 1) goes through about five roundings of relative size eps
    (the normalization of p, the slack, the product and quotient, the
    subtraction) and the sum adds one more per entry, so a sum is off by at
    most a few K*eps and a single entry by a few eps; 8*K*eps and 8*eps leave
    a margin over that count."""

    @settings(max_examples=300, deadline=None)
    @given(floored_inputs())
    def test_sums_to_one(self, inputs):
        p, rho = inputs
        assert abs(adv.floor_probabilities(p, rho).sum() - 1.0) <= 8 * p.size * EPS

    @settings(max_examples=300, deadline=None)
    @given(floored_inputs())
    def test_every_entry_at_least_the_floor(self, inputs):
        p, rho = inputs
        assert adv.floor_probabilities(p, rho).min() >= rho - 8 * EPS

    @settings(max_examples=300, deadline=None)
    @given(floored_inputs())
    def test_order_kept(self, inputs):
        p, rho = inputs
        out = adv.floor_probabilities(p, rho)
        assert np.all(np.diff(out[np.argsort(p, kind="stable")]) >= -8 * EPS)

    @settings(max_examples=300, deadline=None)
    @given(floored_inputs(low=1e-3), hs.floats(1e-3, 1.0))
    def test_unchanged_when_no_entry_is_below_the_floor(self, inputs, fraction):
        p, _ = inputs
        rho = fraction * p.min()
        hypothesis.assume(0.0 < rho < 1.0 / p.size)
        np.testing.assert_allclose(adv.floor_probabilities(p, rho), p, rtol=0.0, atol=8 * p.size * EPS)


class TestIpw:
    """run_gbpa's update in its first round, where the estimate is zero and the
    Shannon probabilities are uniform: the played arm's reward over its
    probability, zero elsewhere."""

    REWARDS = np.array([[0.3, 0.8, 0.5]])
    POTENTIAL = adv.PotentialSpec("shannon", eta=2.0)

    def one_round(self, seed, rewards=REWARDS):
        _, state = adv.run_gbpa(rewards, self.POTENTIAL, seed)
        return int(state.arms[0]), state.g_hat_cum

    def test_definition(self):
        p = adv.choice_prob_shannon(np.zeros(3), self.POTENTIAL.eta)
        for seed in range(10):
            arm, g_hat = self.one_round(seed)
            expected = np.zeros(3)
            expected[arm] = self.REWARDS[0, arm] / p[arm]
            np.testing.assert_array_equal(g_hat, expected)

    def test_zero_reward(self):
        for seed in range(5):
            np.testing.assert_array_equal(self.one_round(seed, np.zeros((1, 3)))[1], 0.0)

    def test_one_round_estimate_is_unbiased(self):
        # Weighting the estimate after each arm by that arm's probability
        # recovers the whole reward vector.
        p = adv.choice_prob_shannon(np.zeros(3), self.POTENTIAL.eta)
        after = {}
        for seed in range(50):
            arm, g_hat = self.one_round(seed)
            after[arm] = g_hat
        assert sorted(after) == [0, 1, 2]
        mean = sum(p[arm] * g_hat for arm, g_hat in after.items())
        np.testing.assert_allclose(mean, self.REWARDS[0], rtol=1e-15)


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
        rewards = adv.make_constant_rewards(500, 4, 0.5)
        pot = adv.PotentialSpec("shannon", eta=10.0)
        regs = [adv.run_gbpa(rewards, pot, seed=s)[0] for s in range(20)]
        assert abs(np.mean(regs)) < 1e-9

    def test_reproducible(self):
        rewards = adv.make_single_best_arm_rewards(300, 4)
        pot = adv.PotentialSpec("tsallis", eta=10.0, alpha=0.5)
        r1, s1 = adv.run_gbpa(rewards, pot, seed=7)
        r2, s2 = adv.run_gbpa(rewards, pot, seed=7)
        assert r1 == r2
        np.testing.assert_array_equal(s1.arms, s2.arms)

    def test_state_accounting(self):
        rewards = adv.make_iid_rewards(200, 3, seed=0)
        regret, state = adv.run_gbpa(rewards, adv.PotentialSpec("shannon", eta=5.0), seed=1)
        assert state.arms.size == 200
        realized = rewards[np.arange(200), state.arms].sum()
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
