import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs
from scipy.special import ndtr

from perturbed_bandits import distributions as dist
from perturbed_bandits import stochastic as st

import play_reference


def two_arm_state(means_hat, counts):
    return st.LearnerState(
        counts=np.asarray(counts, dtype=np.int64),
        means_hat=np.asarray(means_hat, dtype=float),
        t=int(np.sum(counts)),
    )


def fresh_state(num_arms):
    return st.LearnerState(counts=np.zeros(num_arms, dtype=np.int64), means_hat=np.zeros(num_arms))


def reference_update(state, arm, rewards):
    """Fold arm's next reward, entry [T_arm, arm] of the (T, K) table, into its
    running mean: mean <- (mean * n + r) / (n + 1) after n pulls."""
    n = int(state.counts[arm])
    state.means_hat[arm] = (float(state.means_hat[arm]) * n + rewards[n, arm]) / (n + 1)
    state.counts[arm] = n + 1


def reference_arm(policy, state, horizon, rng):
    """The arm a policy picks, computed from the paper's index formulas without
    the module's index helpers:

    * UCB1: argmax of mean_i + sqrt(2 log T / T_i), unpulled arms first and
      ties going to the lowest index;
    * FTPL and Thompson sampling: argmax of mean_i + Z_i / sqrt(1 v T_i), Z a
      unit Gaussian for Thompson sampling;
    * RCB: argmax of mean_i + sqrt((2 + eps) log T / (1 v T_i)) Z_i.

    A perturbed round draws K fresh values of ``dist.sample_array``.  Ties are
    broken to the lowest index, which matches ``play`` only for UCB1 and the
    tie-free perturbations: ``play`` breaks a perturbed tie at random.
    """
    means, counts = state.means_hat, state.counts
    if policy.kind == "ucb1":
        if np.any(counts == 0):
            return int(np.argmax(counts == 0))
        return int(np.argmax(means + np.sqrt(2.0 * math.log(horizon) / counts)))
    spec = dist.gaussian(1.0) if policy.kind == "thompson" else policy.spec
    z = dist.sample_array(spec, rng, counts.size)
    pulls = np.maximum(counts, 1)
    if policy.kind == "rcb":
        return int(np.argmax(means + np.sqrt((2.0 + policy.epsilon) * math.log(horizon) / pulls) * z))
    return int(np.argmax(means + z / np.sqrt(pulls)))


def reference_play(rewards, policy, rng):
    """``play`` written with ``reference_arm`` and ``reference_update``: the
    arms of one episode against a (T, K) table whose entry [n, i] is arm i's
    reward at its n-th pull."""
    T, K = rewards.shape
    state = fresh_state(K)
    arms = np.empty(T, dtype=np.int64)
    for t in range(T):
        arms[t] = reference_arm(policy, state, T, rng)
        reference_update(state, arms[t], rewards)
    return arms


# The policies whose perturbations never tie, so that play draws nothing but
# perturbations from its generator.  RCB's width (2 + eps) log T is 0 at
# T = 1, where its index is the mean alone, so RCB ties there.
TIE_FREE_POLICIES = [
    st.PolicyConfig("ucb1"),
    st.PolicyConfig("thompson"),
    st.PolicyConfig("ftpl", spec=dist.gaussian(0.5)),
    st.PolicyConfig("ftpl", spec=dist.double_exponential(1.0)),
    st.PolicyConfig("rcb", spec=dist.uniform(), epsilon=0.25),
]


def seeded_episode(instance, policy, seed):
    """run_episode with reward and policy generators spawned from one seed."""
    reward_ss, policy_ss = np.random.SeedSequence(seed).spawn(2)
    return st.run_episode(
        instance, policy, reward_rng=np.random.default_rng(reward_ss), policy_rng=np.random.default_rng(policy_ss)
    )


class TestInstances:
    def test_gaps(self):
        inst = st.BanditInstance(
            means=[0.9, 0.4, 0.1], reward_model=dist.RewardModel(), horizon=10
        )
        np.testing.assert_allclose(inst.gaps(), [0.0, 0.5, 0.8])

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError):
            st.BanditInstance(means=[0.1, 0.2], reward_model=dist.RewardModel(), horizon=0)

    def test_lower_bound_instance_gap(self):
        inst = st.make_lower_bound_instance(10, 10_000, 2.0)
        delta = math.sqrt(10 / 10_000) * math.log(10) ** 0.5
        assert inst.means[0] == pytest.approx(delta, abs=1e-12)
        assert delta == pytest.approx(0.04800, abs=5e-5)
        assert np.all(inst.means[1:] == 0.0)
        assert inst.reward_model.kind == dist.POINT

    def test_lower_bound_instance_q1(self):
        inst = st.make_lower_bound_instance(2, 4, 1.0)
        assert inst.means[0] == pytest.approx(math.sqrt(0.5) * math.log(2), abs=1e-9)

    def test_lower_bound_instance_degenerate_rejected(self):
        with pytest.raises(ValueError, match="horizon too small"):
            st.make_lower_bound_instance(100, 120, 1.0)


class TestPolicyConfig:
    def test_ftpl_needs_unbounded(self):
        with pytest.raises(ValueError, match="unbounded"):
            st.PolicyConfig("ftpl", spec=dist.uniform())
        st.PolicyConfig("ftpl", spec=dist.gaussian(1.0))

    def test_rcb_needs_bounded(self):
        with pytest.raises(ValueError, match="bounded"):
            st.PolicyConfig("rcb", spec=dist.gaussian(1.0))
        st.PolicyConfig("rcb", spec=dist.rademacher(), epsilon=0.25)

    def test_rcb_needs_positive_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            st.PolicyConfig("rcb", spec=dist.uniform(), epsilon=0.0)


class TestSelectUcb1:
    # The reference selector, pinned to the UCB1 formula; TestPlayOracle pins
    # play to the reference.
    UCB1 = st.PolicyConfig("ucb1")

    def test_symmetric_tie_to_lowest_index(self):
        assert reference_arm(self.UCB1, two_arm_state([0.0, 0.0], [1, 1]), 100, None) == 0

    def test_index_formula(self):
        # indices: 1 + sqrt(2 log 100 / 4) = 2.5174 vs 0 + sqrt(2 log 100) = 3.0349
        assert reference_arm(self.UCB1, two_arm_state([1.0, 0.0], [4, 1]), 100, None) == 1

    def test_unpulled_arm_first(self):
        assert reference_arm(self.UCB1, two_arm_state([0.0, 0.9], [0, 5]), 100, None) == 0


class TestRandomizedSelection:
    # The reference selector, pinned to the Thompson and FTPL laws.
    THOMPSON = st.PolicyConfig("thompson")
    GAUSSIAN_FTPL = st.PolicyConfig("ftpl", spec=dist.gaussian(1.0))

    def thompson(self, state, rng):
        return reference_arm(self.THOMPSON, state, 100, rng)

    def test_symmetric_state_balanced(self):
        rng = np.random.default_rng(0)
        state = two_arm_state([0.0, 0.0], [3, 3])
        freq = np.mean([self.thompson(state, rng) for _ in range(10**5)])
        assert abs(freq - 0.5) < 0.005

    def test_thompson_gap_probability(self):
        # P(N(0, 1/4) > N(1, 1/4)) = ndtr(-sqrt(2)).
        rng = np.random.default_rng(1)
        state = two_arm_state([1.0, 0.0], [4, 4])
        freq = np.mean([self.thompson(state, rng) == 1 for _ in range(10**5)])
        assert abs(freq - ndtr(-math.sqrt(2.0))) < 0.003

    def test_fresh_state_uses_unit_variance(self):
        rng = np.random.default_rng(2)
        state = two_arm_state([0.0, 0.0], [0, 0])
        freq = np.mean([self.thompson(state, rng) for _ in range(10**5)])
        assert abs(freq - 0.5) < 0.005

    def test_ftpl_bounded_rejects_unbounded_spec(self):
        with pytest.raises(ValueError):
            st.select_ftpl_bounded(
                two_arm_state([0.0, 0.0], [1, 1]), dist.gaussian(), 100, 0.25, np.random.default_rng(0)
            )

    def test_gaussian_ftpl_equals_thompson_under_coupled_seeds(self):
        # play's own Thompson and Gaussian-FTPL paths, over many seeds.
        table = dist.RewardModel().reward_table([0.3, 0.1], 20, np.random.default_rng(0))
        for s in range(200):
            np.testing.assert_array_equal(
                st.play(table, self.THOMPSON, np.random.default_rng(s)),
                st.play(table, self.GAUSSIAN_FTPL, np.random.default_rng(s)),
            )

    def test_shift_invariance(self):
        base = two_arm_state([0.3, 0.1], [5, 2])
        shifted = two_arm_state([10.3, 10.1], [5, 2])
        for s in range(200):
            assert reference_arm(self.GAUSSIAN_FTPL, base, 100, np.random.default_rng(s)) == reference_arm(
                self.GAUSSIAN_FTPL, shifted, 100, np.random.default_rng(s)
            )

    def test_rcb_rademacher_is_random_confidence_choice(self):
        state = two_arm_state([0.5, 0.2], [4, 9])
        width = np.sqrt(2.25 * math.log(100) / np.array([4.0, 9.0]))
        seen = set()
        for s in range(100):
            rng = np.random.default_rng(s)
            z = dist.sample_array(dist.rademacher(), rng, 2)
            theta = state.means_hat + width * z
            assert np.all(np.isin(theta, np.concatenate([state.means_hat - width, state.means_hat + width])))
            seen.add(tuple(z))
        assert len(seen) == 4


class TestSupportIntervals:
    def test_unwidened_counterexample_state(self):
        # At means (-1, 1/3) with counts (1, 9), the unwidened index ranges
        # are [-2, 0] and [0 - 1/3, 2/3 + 1/3] intersected per arm: arm 1 can
        # never exceed arm 2's floor, so arm 1 is never selected.
        state = two_arm_state([-1.0, 1.0 / 3.0], [1, 9])
        lo, hi = st.theta_support_intervals(state, dist.uniform())
        assert hi[0] == pytest.approx(0.0, abs=1e-12)
        assert lo[1] == pytest.approx(0.0, abs=1e-12)
        assert hi[0] <= lo[1]

    def test_widened_intervals_overlap(self):
        state = two_arm_state([-1.0, 1.0 / 3.0], [1, 9])
        lo, hi = st.theta_support_intervals(state, dist.uniform(), horizon=10_000, epsilon=0.25)
        assert hi[0] > lo[1]

    def test_interval_args_come_together(self):
        state = two_arm_state([0.0, 0.0], [1, 1])
        with pytest.raises(ValueError):
            st.theta_support_intervals(state, dist.uniform(), horizon=100)

    def test_only_bounded_perturbations(self):
        state = two_arm_state([0.0, 0.0], [1, 1])
        with pytest.raises(ValueError):
            st.theta_support_intervals(state, dist.gaussian())


class TestRunEpisode:
    def make_instance(self, means, horizon=1000, model=dist.GAUSSIAN_SHIFT):
        return st.BanditInstance(
            means=np.asarray(means, dtype=float),
            reward_model=dist.RewardModel(model),
            horizon=horizon,
        )

    def test_reproducible(self):
        inst = self.make_instance([0.8, 0.4, 0.1])
        pol = st.PolicyConfig("ftpl", spec=dist.gaussian(1.0))
        a = seeded_episode(inst, pol, 9)
        b = seeded_episode(inst, pol, 9)
        np.testing.assert_array_equal(a.arms, b.arms)
        assert a.final == b.final

    def test_regret_decomposition_exact(self):
        inst = self.make_instance([0.8, 0.4, 0.1])
        for kind, spec in [
            ("ucb1", None),
            ("thompson", None),
            ("ftpl", dist.gaussian(1.0)),
            ("rcb", dist.uniform()),
        ]:
            trace = seeded_episode(inst, st.PolicyConfig(kind, spec=spec), 3)
            counts = np.bincount(trace.arms, minlength=inst.means.size)
            assert trace.final == float(np.dot(inst.gaps(), counts))
            assert np.sum(counts) == inst.horizon

    @settings(max_examples=60, deadline=None)
    @given(
        policy=hs.sampled_from(
            [
                st.PolicyConfig("ucb1"),
                st.PolicyConfig("thompson"),
                st.PolicyConfig("ftpl", spec=dist.gaussian(0.5)),
                st.PolicyConfig("ftpl", spec=dist.double_exponential(1.0)),
                st.PolicyConfig("rcb", spec=dist.uniform(), epsilon=0.25),
                st.PolicyConfig("rcb", spec=dist.rademacher(), epsilon=1.0),
            ]
        ),
        means=hs.lists(hs.floats(0.0, 1.0), min_size=2, max_size=6),
        horizon=hs.integers(1, 300),
        model=hs.sampled_from(dist.REWARD_MODELS),
        seed=hs.integers(0, 2**32 - 1),
    )
    def test_final_regret_is_gaps_dot_counts(self, policy, means, horizon, model, seed):
        inst = self.make_instance(means, horizon=horizon, model=model)
        trace = seeded_episode(inst, policy, seed)
        counts = np.bincount(trace.arms, minlength=inst.means.size)
        assert trace.final == float(np.dot(inst.gaps(), counts))
        assert np.sum(counts) == horizon

    @pytest.mark.parametrize(
        "policy",
        [
            st.PolicyConfig("ucb1"),
            st.PolicyConfig("thompson"),
            st.PolicyConfig("ftpl", spec=dist.double_exponential(1.0)),
            st.PolicyConfig("rcb", spec=dist.uniform(), epsilon=0.25),
        ],
        ids=lambda p: p.label(),
    )
    def test_episode_matches_select_and_update(self, policy):
        # Without ties the episode's block-drawn perturbations are the same
        # stream as one draw per reference_arm call, so the arms must agree.
        inst = self.make_instance([0.8, 0.4, 0.1, 0.5], horizon=300)
        children = np.random.SeedSequence(21).spawn(2)
        trace = st.run_episode(
            inst,
            policy,
            reward_rng=np.random.default_rng(children[0]),
            policy_rng=np.random.default_rng(children[1]),
        )
        rewards = inst.reward_model.sample_table(inst.means, inst.horizon, np.random.default_rng(children[0]))
        rng = np.random.default_rng(children[1])
        state = fresh_state(inst.means.size)
        gaps = inst.gaps()
        assert trace.regret(0) == 0.0
        for t in range(inst.horizon):
            arm = reference_arm(policy, state, inst.horizon, rng)
            assert arm == trace.arms[t]
            reference_update(state, arm, rewards)
            assert trace.regret(t + 1) == float(gaps.dot(state.counts))
        np.testing.assert_array_equal(state.counts, np.bincount(trace.arms, minlength=inst.means.size))

    def test_trace_nondecreasing(self):
        inst = self.make_instance([0.8, 0.4, 0.1])
        trace = seeded_episode(inst, st.PolicyConfig("thompson"), 4)
        regret = [trace.regret(t) for t in range(inst.horizon + 1)]
        assert np.all(np.diff(regret) >= 0.0)

    def test_reward_stream_coupled_across_policies(self):
        inst = self.make_instance([0.8, 0.4])
        children = np.random.SeedSequence(5).spawn(3)
        traces = {}
        for kind in ("ucb1", "thompson"):
            traces[kind] = st.run_episode(
                inst,
                st.PolicyConfig(kind),
                reward_rng=np.random.default_rng(children[0]),
                policy_rng=np.random.default_rng(children[1]),
            )
        # Both policies consumed the same reward table: re-running either
        # yields identical traces, and the tables agree entrywise on the
        # (arm, pull-count) pairs both visited (checked via regret identity).
        for kind, trace in traces.items():
            again = st.run_episode(
                inst,
                st.PolicyConfig(kind),
                reward_rng=np.random.default_rng(children[0]),
                policy_rng=np.random.default_rng(children[1]),
            )
            np.testing.assert_array_equal(trace.arms, again.arms)

    def test_point_rewards_single_good_arm(self):
        inst = st.make_lower_bound_instance(4, 400, 2.0)
        trace = seeded_episode(inst, st.PolicyConfig("ucb1"), 0)
        delta = inst.means[0]
        assert trace.final == pytest.approx(
            delta * (inst.horizon - np.count_nonzero(trace.arms == 0)), abs=1e-9
        )

    def test_thompson_bitwise_equals_gaussian_ftpl(self):
        inst = self.make_instance([0.9, 0.5, 0.2], horizon=5000)
        children = np.random.SeedSequence(11).spawn(2)
        a = st.run_episode(
            inst,
            st.PolicyConfig("thompson"),
            reward_rng=np.random.default_rng(children[0]),
            policy_rng=np.random.default_rng(children[1]),
        )
        b = st.run_episode(
            inst,
            st.PolicyConfig("ftpl", spec=dist.gaussian(1.0)),
            reward_rng=np.random.default_rng(children[0]),
            policy_rng=np.random.default_rng(children[1]),
        )
        np.testing.assert_array_equal(a.arms, b.arms)

    def test_average_regret_decreasing(self):
        inst = self.make_instance([0.8, 0.3], horizon=2000)
        pol = st.PolicyConfig("ftpl", spec=dist.gaussian(1.0))
        finals = np.zeros(2)
        for s in range(40):
            trace = seeded_episode(inst, pol, s)
            finals += np.array([trace.regret(200) / 200, trace.final / 2000])
        assert finals[1] < finals[0]


class TestPlayOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        policy=hs.sampled_from(TIE_FREE_POLICIES),
        means=hs.lists(hs.floats(0.0, 1.0), min_size=2, max_size=12),
        horizon=hs.integers(1, 400),
        model=hs.sampled_from(dist.REWARD_MODELS),
        seed=hs.integers(0, 2**32 - 1),
    )
    def test_play_matches_reference(self, policy, means, horizon, model, seed):
        # play and the paper-formula reference, on one table and one policy
        # seed, pick the same arm in every round.
        assume(policy.kind != "rcb" or horizon > 1)
        table = dist.RewardModel(model).reward_table(means, horizon, np.random.default_rng([seed, 0]))
        rewards = dist.RewardModel(model).sample_table(means, horizon, np.random.default_rng([seed, 0]))
        np.testing.assert_array_equal(
            st.play(table, policy, np.random.default_rng([seed, 1])),
            reference_play(rewards, policy, np.random.default_rng([seed, 1])),
        )


# Every policy kind, Rademacher RCB, whose perturbations tie, included.
ALL_POLICIES = [*TIE_FREE_POLICIES, st.PolicyConfig("rcb", spec=dist.rademacher(), epsilon=0.25)]


class TestPlayEqualsPrevious:
    @settings(max_examples=120, deadline=None)
    @given(
        policy=hs.sampled_from(ALL_POLICIES),
        K=hs.integers(2, 300),
        levels=hs.integers(1, 4),
        horizon=hs.integers(1, 2500),
        model=hs.sampled_from(dist.REWARD_MODELS),
        seed=hs.integers(0, 2**32 - 1),
    )
    def test_play_matches_previous_play(self, policy, K, levels, horizon, model, seed):
        # The arms of play and of the previous play, ties and their random
        # breaks included, on one table and one policy seed: play on rows
        # drawn as its pulls reach them, the previous play on the whole
        # table.  Means on a few levels make equal indices common; horizons
        # past 2,048 read a third block of perturbation rows.
        means = np.random.default_rng([seed, 2]).integers(0, levels, K) / levels
        table = dist.RewardModel(model).reward_table(means, horizon, np.random.default_rng([seed, 0]))
        rewards = dist.RewardModel(model).sample_table(means, horizon, np.random.default_rng([seed, 0]))
        arms = st.play(table, policy, np.random.default_rng([seed, 1]))
        np.testing.assert_array_equal(arms, play_reference.play(rewards, policy, np.random.default_rng([seed, 1])))
        # The rows drawn cover every pull and hold the whole table's bits.
        assert np.bincount(arms).max() <= len(table.rows)
        assert table.rows.tobytes() == rewards[: len(table.rows)].tobytes()
