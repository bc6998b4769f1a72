import math

import numpy as np
import pytest

from perturbed_bandits import distributions as dist

CONTINUOUS_SPECS = [
    dist.gaussian(1.0),
    dist.gaussian(2.0),
    dist.uniform(),
    dist.double_exponential(1.0),
    dist.gumbel(0.0, 1.0),
    dist.gumbel(1.0, 2.0),
    dist.gamma(2.0),
    dist.weibull(1.0),
    dist.weibull(0.5),
    dist.frechet(2.0),
    dist.pareto(2.0),
]


def spec_id(spec):
    return spec.label()


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown perturbation kind"):
            dist.PerturbationSpec("cauchy")

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_scale_rejected(self, bad):
        with pytest.raises(ValueError):
            dist.gaussian(bad)
        with pytest.raises(ValueError):
            dist.double_exponential(bad)
        with pytest.raises(ValueError):
            dist.gamma(bad)

    def test_frechet_needs_finite_mean(self):
        with pytest.raises(ValueError, match="alpha > 1"):
            dist.frechet(1.0)
        dist.frechet(1.5)

    def test_bounded_support_flag(self):
        assert dist.uniform().bounded_support
        assert dist.rademacher().bounded_support
        for spec in (dist.gaussian(), dist.gumbel(), dist.pareto(2.0)):
            assert not spec.bounded_support


class TestSampling:
    def test_deterministic_given_seed(self):
        for spec in CONTINUOUS_SPECS + [dist.rademacher()]:
            a = dist.sample_array(spec, np.random.default_rng(42), 100)
            b = dist.sample_array(spec, np.random.default_rng(42), 100)
            np.testing.assert_array_equal(a, b)

    def test_rademacher_two_point(self):
        draws = dist.sample_array(dist.rademacher(), np.random.default_rng(0), 1000)
        assert set(np.unique(draws)) == {-1.0, 1.0}

    def test_gaussian_mean_zero(self):
        draws = dist.sample_array(dist.gaussian(1.0), np.random.default_rng(1), 10**6)
        assert abs(draws.mean()) < 3.0 / math.sqrt(10**6) + 1e-9

    def test_pareto_shifted_mean(self):
        # E[X] = alpha/(alpha-1) - 1 = 1 for the shifted Pareto with alpha = 2.
        draws = dist.sample_array(dist.pareto(2.0), np.random.default_rng(2), 10**6)
        stderr = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 1.0) < 3.0 * stderr

    def test_gumbel_mean_is_euler_gamma(self):
        draws = dist.sample_array(dist.gumbel(), np.random.default_rng(3), 10**6)
        stderr = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - np.euler_gamma) < 3.0 * stderr

    def test_weibull_alpha_one_is_standard_exponential(self):
        draws = dist.sample_array(dist.weibull(1.0), np.random.default_rng(4), 10**6)
        stderr = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 1.0) < 3.0 * stderr

    @pytest.mark.parametrize("spec", CONTINUOUS_SPECS, ids=spec_id)
    def test_sampler_matches_cdf(self, spec):
        draws = np.sort(dist.sample_array(spec, np.random.default_rng(5), 10**5))
        ecdf = np.arange(1, draws.size + 1) / draws.size
        ks = np.abs(np.asarray(dist.cdf(spec, draws)) - ecdf).max()
        assert ks < 0.01


class TestClosedForms:
    def test_gumbel_cdf_at_zero(self):
        assert dist.cdf(dist.gumbel(), 0.0) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_uniform_cdf_at_zero(self):
        assert dist.cdf(dist.uniform(), 0.0) == 0.5

    def test_frechet_quantile(self):
        assert dist.quantile(dist.frechet(2.0), math.exp(-1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_quantile_domain(self):
        for u in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                dist.quantile(dist.gaussian(), u)

    @pytest.mark.parametrize("spec", CONTINUOUS_SPECS, ids=spec_id)
    def test_quantile_cdf_roundtrip(self, spec):
        u = np.linspace(0.005, 0.995, 100)
        x = dist.quantile(spec, u)
        np.testing.assert_allclose(dist.cdf(spec, x), u, atol=1e-9)

    @pytest.mark.parametrize("spec", CONTINUOUS_SPECS, ids=spec_id)
    def test_cdf_monotone(self, spec):
        x = np.linspace(dist.quantile(spec, 0.001), dist.quantile(spec, 0.999), 500)
        c = np.asarray(dist.cdf(spec, x))
        assert np.all(np.diff(c) >= 0.0)

    @pytest.mark.parametrize("spec", CONTINUOUS_SPECS, ids=spec_id)
    def test_pdf_matches_cdf_derivative(self, spec):
        x = dist.quantile(spec, np.linspace(0.05, 0.95, 50))
        h = 1e-6
        fd = (np.asarray(dist.cdf(spec, x + h)) - np.asarray(dist.cdf(spec, x - h))) / (2 * h)
        np.testing.assert_allclose(dist.pdf(spec, x), fd, rtol=1e-4, atol=1e-8)

    def test_rademacher_has_no_density(self):
        with pytest.raises(ValueError, match="no density"):
            dist.pdf(dist.rademacher(), 0.0)

    # (spec, x, P(Z > x)) with the reference worked out independently of the
    # module; at every x the CDF rounds to within a few ulps of 1, so 1 - cdf
    # keeps at most a few digits of it (none where it is below 1e-16).
    FAR_TAILS = [
        (dist.gaussian(1.0), 30.0, 0.5 * math.erfc(30.0 / math.sqrt(2.0))),
        (dist.gaussian(2.0), 60.0, 0.5 * math.erfc(30.0 / math.sqrt(2.0))),
        (dist.double_exponential(1.0), 40.0, 0.5 * math.exp(-40.0)),
        (dist.gumbel(0.0, 1.0), 40.0, math.exp(-40.0)),
        (dist.gumbel(1.0, 2.0), 81.0, math.exp(-40.0)),
        (dist.gamma(2.0), 50.0, 51.0 * math.exp(-50.0)),
        (dist.weibull(1.0), 40.0, math.exp(-40.0)),
        (dist.weibull(0.5), 1e4, math.exp(1.0 - math.sqrt(10_001.0))),
        (dist.frechet(2.0), 1e4, 1e-8 - 0.5e-16),
        (dist.pareto(2.0), 1e6, 1.0 / 1_000_001.0**2),
    ]

    @pytest.mark.parametrize("spec, x, expected", FAR_TAILS, ids=[spec_id(c[0]) for c in FAR_TAILS])
    def test_far_tail_survival(self, spec, x, expected):
        assert dist.survival(spec, x) == pytest.approx(expected, rel=1e-12)


class TestHazard:
    def test_pareto_hazard_at_zero(self):
        assert dist.hazard(dist.pareto(3.0), 0.0) == pytest.approx(3.0, abs=1e-12)

    def test_gumbel_hazard_far_right(self):
        # h(x) = e^-x / (exp(e^-x) - 1); below 1 and approaching it.
        y = math.exp(-10.0)
        assert dist.hazard(dist.gumbel(), 10.0) == pytest.approx(y / math.expm1(y), rel=1e-9)
        assert dist.hazard(dist.gumbel(), 10.0) < 1.0

    def test_frechet_hazard_at_one(self):
        assert dist.hazard(dist.frechet(2.0), 1.0) == pytest.approx(2.0 / (math.e - 1.0), rel=1e-9)

    def test_hazard_identity(self):
        for spec in CONTINUOUS_SPECS:
            x = dist.quantile(spec, np.linspace(0.05, 0.95, 20))
            np.testing.assert_allclose(
                np.asarray(dist.hazard(spec, x)) * np.asarray(dist.survival(spec, x)),
                dist.pdf(spec, x),
                rtol=1e-9,
            )

    def test_hazard_undefined_past_support(self):
        with pytest.raises(ValueError):
            dist.hazard(dist.uniform(), 2.0)

    def test_sup_hazard_closed_forms(self):
        assert dist.sup_hazard(dist.gumbel(0.0, 1.0)) == 1.0
        assert dist.sup_hazard(dist.gumbel(0.0, 2.0)) == 0.5
        assert dist.sup_hazard(dist.gamma(2.0)) == 1.0
        assert dist.sup_hazard(dist.weibull(0.5)) == 0.5
        assert dist.sup_hazard(dist.weibull(1.0)) == 1.0
        assert dist.sup_hazard(dist.pareto(2.5)) == 2.5

    def test_sup_hazard_gumbel_approached_monotonically(self):
        x = np.linspace(-3.0, 20.0, 400)
        h = np.asarray(dist.hazard(dist.gumbel(), x))
        assert np.all(np.diff(h) > 0.0)
        assert h[-1] < 1.0

    def test_sup_hazard_frechet_interval(self):
        interval = dist.sup_hazard(dist.frechet(2.0))
        assert isinstance(interval, dist.HazardInterval)
        assert interval.lower == pytest.approx(2.0 / (math.e - 1.0))
        assert interval.upper == 4.0
        assert interval.lower < interval.estimate < interval.upper

    def test_sup_hazard_unbounded_cases_rejected(self):
        with pytest.raises(ValueError):
            dist.sup_hazard(dist.weibull(2.0))
        with pytest.raises(ValueError):
            dist.sup_hazard(dist.gamma(0.5))
        with pytest.raises(ValueError):
            dist.sup_hazard(dist.gaussian())


class TestTailMetadata:
    def test_gaussian_exponents(self):
        meta = dist.tail_metadata(dist.gaussian(1.0))
        assert (meta.p, meta.q) == (2.0, 2.0)
        assert meta.sigma == 1.0

    def test_double_exponential_exponents(self):
        meta = dist.tail_metadata(dist.double_exponential(1.0))
        assert (meta.p, meta.q) == (1.0, 1.0)

    def test_bounded_kinds_unsupported(self):
        for spec in (dist.uniform(), dist.rademacher(), dist.gumbel()):
            with pytest.raises(ValueError):
                dist.tail_metadata(spec)

    def test_gaussian_small_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma >= 1"):
            dist.tail_metadata(dist.gaussian(0.5))

    def test_metadata_invariants_enforced(self):
        with pytest.raises(ValueError):
            dist.TailMetadata(p=2.0, q=1.0, sigma=1.0, c_a=2.0, c_b=2.0)
        with pytest.raises(ValueError):
            dist.TailMetadata(p=2.0, q=2.0, sigma=0.5, c_a=2.0, c_b=2.0)
        with pytest.raises(ValueError):
            dist.TailMetadata(p=1.0, q=1.0, sigma=1.0, c_a=0.5, c_b=2.0)

    @pytest.mark.parametrize(
        "spec", [dist.gaussian(1.0), dist.double_exponential(1.0)], ids=spec_id
    )
    def test_two_sided_tail_bounds_hold_empirically(self, spec):
        meta = dist.tail_metadata(spec)
        draws = np.abs(dist.sample_array(spec, np.random.default_rng(6), 10**6))
        for t in (0.5, 1.0, 2.0, 4.0):
            frac = float(np.mean(draws >= t))
            assert frac <= meta.upper_bound(t)
            assert frac >= meta.lower_bound(t)


class TestRewardModel:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            dist.RewardModel("beta")

    def test_point_model_is_deterministic(self):
        means = np.array([0.3, 0.7])
        table = dist.RewardModel(dist.POINT).sample_table(means, 5, np.random.default_rng(0))
        np.testing.assert_array_equal(table, np.tile(means, (5, 1)))

    @pytest.mark.parametrize(
        "kind",
        [dist.UNIFORM_SHIFT, dist.RADEMACHER_SHIFT, dist.GAUSSIAN_SHIFT, dist.GAUSSIAN_MIXTURE_SHIFT],
    )
    def test_sample_mean_equals_arm_mean(self, kind):
        means = np.array([0.2, 0.8])
        table = dist.RewardModel(kind).sample_table(means, 200_000, np.random.default_rng(7))
        stderr = table.std(axis=0, ddof=1) / math.sqrt(table.shape[0])
        np.testing.assert_array_less(np.abs(table.mean(axis=0) - means), 4.0 * stderr)

    def test_mixture_components_centred_one_unit_away(self):
        table = dist.RewardModel(dist.GAUSSIAN_MIXTURE_SHIFT).sample_table(
            np.array([0.0]), 200_000, np.random.default_rng(8)
        )
        # Var = 1 (component) + 1 (component separation) = 2 for the mixture.
        assert table.var(ddof=1) == pytest.approx(2.0, rel=0.02)
