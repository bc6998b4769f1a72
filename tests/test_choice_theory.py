import math

import numpy as np
import pytest
from scipy.special import expit

from perturbed_bandits import adversarial as adv
from perturbed_bandits import choice_theory as ct


class TestBarrierWitness:
    def test_negative_at_small_eps(self):
        assert ct.wdz_counterexample_value(0.5, 0.01) == pytest.approx(-0.6537, abs=1e-4)

    def test_positive_at_large_eps(self):
        assert ct.wdz_counterexample_value(0.5, 0.25) == pytest.approx(0.5, abs=1e-9)

    def test_limit_near_one_third(self):
        # As eps -> 1/3 only the first term survives: 6 * prefactor * eps^(3-2a).
        alpha = 0.5
        eps = 1.0 / 3.0 - 1e-12
        expected = 6.0 * (1.0 / 3.0) ** (3.0 - 2.0 * alpha)
        assert ct.wdz_counterexample_value(alpha, eps) == pytest.approx(expected, rel=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError):
            ct.wdz_counterexample_value(0.5, 1.0 / 3.0)
        with pytest.raises(ValueError):
            ct.wdz_counterexample_value(1.2, 0.1)

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_sign_change_exists(self, alpha):
        assert ct.wdz_sign_change_exists(alpha)


class TestChoiceInverse:
    def test_uniform_target_gives_zero_scores(self):
        G = ct.tsallis_choice_inverse(np.full(4, 0.25), 0.5)
        np.testing.assert_allclose(G, 0.0, atol=1e-12)

    def test_two_arm_symmetric(self):
        G = ct.tsallis_choice_inverse(np.array([0.5, 0.5]), 0.5)
        np.testing.assert_allclose(G, 0.0, atol=1e-12)
        # internally lambda = sqrt(2) at G = 0
        assert G.max() + adv._solve_tsallis_nu((G - G.max()).tolist(), 0.5) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_round_trip_on_random_interior_points(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            raw = rng.random(5) + 0.05
            target = raw / raw.sum()
            G = ct.tsallis_choice_inverse(target, 0.5)
            np.testing.assert_allclose(
                adv.choice_prob_tsallis(G, 1.0, 0.5), target, atol=1e-9
            )
            assert G.min() == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.7, 0.9])
    def test_round_trip_at_other_alphas(self, alpha):
        # The inverse shares _tsallis_gap with the two-arm quantile map; away
        # from alpha = 0.5 its prefactor alpha / (1 - alpha) is not 1.
        rng = np.random.default_rng(1)
        for _ in range(20):
            raw = rng.random(4) + 0.05
            target = raw / raw.sum()
            G = ct.tsallis_choice_inverse(target, alpha)
            np.testing.assert_allclose(adv.choice_prob_tsallis(G, 1.0, alpha), target, atol=1e-9)

    def test_non_interior_rejected(self):
        with pytest.raises(ValueError):
            ct.tsallis_choice_inverse(np.array([1.0, 0.0]), 0.5)


class TestFiniteDifferences:
    def test_mixed_partial_symmetric_in_directions(self):
        G = np.zeros(4)
        a, _ = ct.wdz_fd_mixed_partial(G, 0.5, 0, 1, 2)
        b, _ = ct.wdz_fd_mixed_partial(G, 0.5, 0, 2, 1)
        assert a == pytest.approx(b, rel=1e-6)

    def test_distinct_indices_required(self):
        with pytest.raises(ValueError):
            ct.wdz_fd_mixed_partial(np.zeros(4), 0.5, 0, 0, 1)

    def test_probe_point_sign_matches_closed_form(self):
        result = ct.check_wdz_probe(0.5, 0.01)
        assert result.closed_form_value < 0.0
        assert result.fd_mixed_partial < 0.0
        assert result.signs_agree
        assert not result.passes_condition4

    def test_two_arm_first_derivative_negative(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            D = ct.wdz_fd_derivative_matrix(rng.normal(size=2), 0.5)
            assert D[0, 1] < 0.0

    def test_jacobian_structure(self):
        rng = np.random.default_rng(2)
        checks = ct.check_derivative_matrix(rng.normal(size=4), 0.5)
        assert checks.symmetry_error <= checks.tolerance
        assert checks.row_sum_error <= checks.tolerance
        assert checks.min_tangent_eigenvalue >= -checks.tolerance
        assert checks.off_diagonal_max < 0.0


class TestTwoArmCorrespondence:
    def test_shannon_is_logistic(self):
        assert ct.two_arm_cdf_from_regularizer(ct.SHANNON, 1.0) == pytest.approx(
            expit(1.0), abs=1e-12
        )
        # matches the two-arm softmax
        p = adv.choice_prob_shannon(np.array([1.0, 0.0]), 1.0)
        assert ct.two_arm_cdf_from_regularizer(ct.SHANNON, 1.0) == pytest.approx(p[0], abs=1e-9)

    @pytest.mark.parametrize("z, expected", [(-800.0, 0.0), (800.0, 1.0)])
    def test_shannon_far_out_saturates(self, z, expected):
        # e^800 overflows a double; the logistic must not.
        assert ct.two_arm_cdf_from_regularizer(ct.SHANNON, z) == expected

    def test_tsallis_symmetric_point(self):
        for alpha in (0.3, 0.5, 0.9):
            assert ct.two_arm_cdf_from_regularizer(ct.TSALLIS, 0.0, alpha) == pytest.approx(
                0.5, abs=1e-9
            )

    def test_tsallis_forward_map_value(self):
        z = ct.tsallis_two_arm_z(0.9, 0.5)
        assert z == pytest.approx(0.1**-0.5 - 0.9**-0.5, abs=1e-9)
        assert z == pytest.approx(2.1082, abs=1e-4)

    def test_tsallis_round_trip(self):
        for alpha in (0.3, 0.5, 0.9):
            for u in (0.1, 0.5, 0.9, 0.999):
                z = ct.tsallis_two_arm_z(u, alpha)
                assert ct.two_arm_cdf_from_regularizer(ct.TSALLIS, z, alpha) == pytest.approx(
                    u, abs=1e-9
                )

    def test_tsallis_cdf_valid_on_grid(self):
        us = np.linspace(1e-4, 1 - 1e-4, 1000)
        zs = np.array([ct.tsallis_two_arm_z(float(u), 0.5) for u in us])
        assert np.all(np.diff(zs) > 0.0)
        back = [ct.two_arm_cdf_from_regularizer(ct.TSALLIS, float(z), 0.5) for z in zs]
        assert np.all(np.diff(back) > 0.0)
        assert back[0] < 0.001 and back[-1] > 0.999

    def test_unknown_regularizer(self):
        with pytest.raises(ValueError):
            ct.two_arm_cdf_from_regularizer("renyi", 0.0)


class TestTailIndex:
    def test_alpha_half_criterion_converges(self):
        (_, crit) = ct.tail_index_check(0.5, [1 - 1e-6])[0]
        assert crit == pytest.approx(2.0, rel=0.01)

    def test_alpha_03_criterion_converges(self):
        (_, crit) = ct.tail_index_check(0.3, [1 - 1e-6])[0]
        assert crit == pytest.approx(1.0 / 0.7, rel=0.01)

    def test_alpha_09_monotone_toward_limit(self):
        crits = [c for _, c in ct.tail_index_check(0.9, [1 - 10.0**-k for k in range(2, 8)])]
        assert all(b > a for a, b in zip(crits, crits[1:]))
        assert crits[-1] < 10.0

    def test_sequence_validation(self):
        with pytest.raises(ValueError):
            ct.tail_index_check(0.5, [0.9, 0.8])
        with pytest.raises(ValueError):
            ct.tail_index_check(0.5, [0.5, 1.0])

    def test_logistic_criterion_diverges(self):
        vals = [ct.logistic_tail_criterion(1 - 10.0**-k) for k in (2, 4, 6)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 10.0


class TestGumbelSoftmax:
    def test_uniform_scores(self):
        dev = ct.gumbel_softmax_equivalence(np.zeros(4), 1.0, 10**5, np.random.default_rng(3))
        assert dev <= 3.0 / math.sqrt(10**5)

    def test_eta_scaling_equivalence(self):
        G = np.array([2.0, 1.0, 0.0])
        rng1 = np.random.default_rng(4)
        rng2 = np.random.default_rng(4)
        d1 = ct.gumbel_softmax_equivalence(G, 2.0, 10**5, rng1)
        d2 = ct.gumbel_softmax_equivalence(G / 2.0, 1.0, 10**5, rng2)
        assert d1 == pytest.approx(d2, abs=1e-12)

    def test_minimum_sample_size(self):
        with pytest.raises(ValueError):
            ct.gumbel_softmax_equivalence(np.zeros(2), 1.0, 100, np.random.default_rng(0))


def test_run_theory_checks_all_pass():
    rows = ct.run_theory_checks(seed=0)
    failing = [r.name for r in rows if not r.passed]
    assert failing == []
    text = ct.rows_to_text(rows)
    assert text.count("PASS") == len(rows)
