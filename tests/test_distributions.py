import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy import stats

from perturbed_bandits import distributions as dist

CONTINUOUS_SPECS = [
    dist.gaussian(1.0),
    dist.gaussian(2.0),
    dist.uniform(),
    dist.double_exponential(1.0),
    dist.gumbel(),
    dist.gamma(2.0),
    dist.weibull(1.0),
    dist.weibull(0.5),
    dist.frechet(2.0),
    dist.pareto(2.0),
]


# The kinds with a hazard rate in the module.
DENSITY_SPECS = [dist.gumbel(), dist.frechet(2.0), dist.frechet(3.0)]
INVERSE_CDF_SPECS = [spec for spec in CONTINUOUS_SPECS if spec.kind in dist._INVERSE_CDF_KINDS]


def spec_id(spec):
    return spec.label()


def reference_cdf(spec):
    """The CDF of ``spec`` from scipy.stats, independent of the module."""
    a = spec.alpha
    return {
        dist.GAUSSIAN: lambda x: stats.norm.cdf(x, scale=spec.sigma),
        dist.UNIFORM: lambda x: stats.uniform.cdf(x, loc=-1.0, scale=2.0),
        dist.DOUBLE_EXPONENTIAL: lambda x: stats.laplace.cdf(x, scale=spec.sigma),
        dist.GUMBEL: stats.gumbel_r.cdf,
        dist.GAMMA: lambda x: stats.gamma.cdf(x, a),
        # F(x) = 1 - exp(1 - (1+x)^a): (1+x)^a - 1 is a standard exponential.
        dist.WEIBULL: lambda x: stats.expon.cdf((1.0 + x) ** a - 1.0),
        dist.FRECHET: lambda x: stats.invweibull.cdf(x, a),
        dist.PARETO: lambda x: stats.lomax.cdf(x, a),
    }[spec.kind]


def reference_law(spec):
    """scipy.stats' Gumbel or Frechet law for a spec with a hazard rate."""
    return stats.gumbel_r() if spec.kind == dist.GUMBEL else stats.invweibull(spec.alpha)


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
        ks = np.abs(reference_cdf(spec)(draws) - ecdf).max()
        assert ks < 0.01


class TestClosedForms:
    def test_gumbel_cdf_at_zero(self):
        # F(0) = 1/e, and the density there is F(0) too: h(0) = (1/e) / (1 - 1/e).
        assert dist.hazard(dist.gumbel(), 0.0) == pytest.approx(1.0 / (math.e - 1.0), rel=1e-15)

    def test_frechet_quantile(self):
        assert dist._inverse_cdf(dist.frechet(2.0), math.exp(-1.0)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("spec", INVERSE_CDF_SPECS, ids=spec_id)
    def test_quantile_cdf_roundtrip(self, spec):
        # The inverse-CDF samplers' quantile, undone by scipy's CDF.
        u = np.linspace(0.005, 0.995, 100)
        np.testing.assert_allclose(reference_cdf(spec)(dist._inverse_cdf(spec, u)), u, atol=1e-9)

    def test_rademacher_has_no_density(self):
        with pytest.raises(ValueError, match="no hazard rate"):
            dist.hazard(dist.rademacher(), 0.0)

    @pytest.mark.parametrize(
        "spec",
        [s for s in CONTINUOUS_SPECS + [dist.rademacher()] if s.kind not in (dist.GUMBEL, dist.FRECHET)],
        ids=spec_id,
    )
    def test_only_gumbel_and_frechet_have_a_density(self, spec):
        # Their hazard is the one the module writes out; every other kind's
        # sup_hazard is a closed form.
        with pytest.raises(ValueError, match="only gumbel and frechet"):
            dist.hazard(spec, 0.5)

    # (spec, x, h(x)) with the reference worked out independently of the
    # module, where the CDF rounds to within a few ulps of 1: the Gumbel's
    # h = y / (e^y - 1) ~ 1 - y/2 at y = e^-40, and the Frechet(2)'s
    # h = 2 y^1.5 / (e^y - 1) ~ 2 sqrt(y) (1 - y/2) at y = 1e-8.
    FAR_TAILS = [
        (dist.gumbel(), 40.0, 1.0 - 0.5 * math.exp(-40.0)),
        (dist.frechet(2.0), 1e4, 2e-4 * (1.0 - 0.5e-8)),
    ]

    @pytest.mark.parametrize("spec, x, expected", FAR_TAILS, ids=[spec_id(c[0]) for c in FAR_TAILS])
    def test_far_tail_hazard(self, spec, x, expected):
        assert dist.hazard(spec, x) == pytest.approx(expected, rel=1e-15)


class TestHazard:
    def test_gumbel_hazard_far_right(self):
        # h(x) = e^-x / (exp(e^-x) - 1); below 1 and approaching it.
        y = math.exp(-10.0)
        assert dist.hazard(dist.gumbel(), 10.0) == pytest.approx(y / math.expm1(y), rel=1e-9)
        assert dist.hazard(dist.gumbel(), 10.0) < 1.0

    def test_frechet_hazard_at_one(self):
        assert dist.hazard(dist.frechet(2.0), 1.0) == pytest.approx(2.0 / (math.e - 1.0), rel=1e-9)

    def test_hazard_identity(self):
        # h S = f, with scipy's survival S and density f.
        for spec in DENSITY_SPECS:
            law = reference_law(spec)
            x = law.ppf(np.linspace(0.05, 0.95, 20))
            np.testing.assert_allclose(np.asarray(dist.hazard(spec, x)) * law.sf(x), law.pdf(x), rtol=1e-9)

    # (spec, grid): the Gumbel from its far left to where its CDF rounds to 1,
    # the Frechet from near its origin far into its tail.
    SCIPY_GRIDS = [
        (dist.gumbel(), np.linspace(-5.0, 30.0, 2001)),
        (dist.frechet(1.5), np.geomspace(0.2, 1e6, 2001)),
        (dist.frechet(2.0), np.geomspace(0.2, 1e6, 2001)),
        (dist.frechet(3.0), np.geomspace(0.2, 1e6, 2001)),
    ]

    @pytest.mark.parametrize("spec, x", SCIPY_GRIDS, ids=[spec_id(c[0]) for c in SCIPY_GRIDS])
    def test_hazard_matches_scipy(self, spec, x):
        law = reference_law(spec)
        np.testing.assert_allclose(dist.hazard(spec, x), law.pdf(x) / law.sf(x), rtol=1e-13)

    def test_hazard_undefined_past_support(self):
        # Far enough out, the survival rounds to 0.
        for spec, x in ((dist.gumbel(), 800.0), (dist.frechet(2.0), 1e200)):
            with pytest.raises(ValueError, match="CDF equals 1"):
                dist.hazard(spec, x)

    def test_frechet_density_vanishes_near_zero(self):
        # Where exp(-x^-alpha) underflows, x^-alpha may overflow; there, as at
        # x <= 0 (x = -1 included, where x^-2 would be 1), the density is 0,
        # with no warning.
        # For alpha = 2, exp(-x^-2) underflows between x = 0.040 and 0.036.
        near_zero = [-1.0, 0.0, 1e-300, 1e-200, 1e-120]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for spec in (dist.frechet(1.5), dist.frechet(2.0)):
                for x in near_zero:
                    with pytest.raises(ValueError, match="density vanishes"):
                        dist.hazard(spec, x)
                with pytest.raises(ValueError, match="density vanishes"):
                    dist.hazard(spec, near_zero)
            with pytest.raises(ValueError, match="density vanishes"):
                dist.hazard(dist.frechet(2.0), 0.036)
            assert dist.hazard(dist.frechet(2.0), 0.040) > 0.0

    def test_gumbel_density_vanishes_far_left(self):
        # exp(-x) overflows below x ~ -710, and the density exp(-x - e^-x)
        # underflows below x ~ -6.6; there the density is 0, with no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (-800.0, -1e300, -6.7, [-800.0, -1e300]):
                with pytest.raises(ValueError, match="density vanishes"):
                    dist.hazard(dist.gumbel(), x)
            assert dist.hazard(dist.gumbel(), -6.5) > 0.0

    def test_gumbel_hazard_far_left_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="density vanishes"):
                dist.hazard(dist.gumbel(), -800.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_hazard_rejects_nonfinite_x(self, bad):
        for spec in (dist.gumbel(), dist.frechet(2.0), dist.pareto(2.0)):
            with pytest.raises(ValueError, match="finite"):
                dist.hazard(spec, bad)
            with pytest.raises(ValueError, match="finite"):
                dist.hazard(spec, [1.0, bad])

    def test_sup_hazard_closed_forms(self):
        assert dist.sup_hazard(dist.gumbel()) == 1.0
        assert dist.sup_hazard(dist.gamma(2.0)) == 1.0
        assert dist.sup_hazard(dist.weibull(0.5)) == 0.5
        assert dist.sup_hazard(dist.weibull(1.0)) == 1.0
        assert dist.sup_hazard(dist.pareto(2.5)) == 2.5

    # (spec, scipy.stats law with the same hazard on x >= 0, grid, hazard
    # rising to its supremum or falling from it at x = 0).  Left truncation
    # keeps the hazard, so the shifted Weibull is weibull_min moved to -1.
    SUP_HAZARD_LAWS = [
        (dist.gumbel(), stats.gumbel_r(), np.linspace(-3.0, 30.0, 2001), True),
        (dist.gamma(1.0), stats.gamma(1.0), np.linspace(0.0, 200.0, 2001), True),
        (dist.gamma(2.0), stats.gamma(2.0), np.linspace(0.0, 200.0, 2001), True),
        (dist.gamma(5.0), stats.gamma(5.0), np.linspace(0.0, 200.0, 2001), True),
        (dist.weibull(0.5), stats.weibull_min(0.5, loc=-1.0), np.linspace(0.0, 200.0, 2001), False),
        (dist.weibull(1.0), stats.weibull_min(1.0, loc=-1.0), np.linspace(0.0, 200.0, 2001), False),
        (dist.pareto(2.5), stats.lomax(2.5), np.linspace(0.0, 200.0, 2001), False),
        (dist.pareto(3.0), stats.lomax(3.0), np.linspace(0.0, 200.0, 2001), False),
    ]

    @pytest.mark.parametrize(
        "spec, law, x, rising", SUP_HAZARD_LAWS, ids=[spec_id(c[0]) for c in SUP_HAZARD_LAWS]
    )
    def test_sup_hazard_closed_form_matches_scipy(self, spec, law, x, rising):
        h = law.pdf(x) / law.sf(x)
        sup = dist.sup_hazard(spec)
        assert h.max() <= sup * (1.0 + 1e-9)
        if rising:
            # Gamma(5)'s hazard is still 2% short of 1 at x = 200.
            assert np.all(np.diff(h) >= -1e-12) and h[-1] >= 0.98 * sup
        else:
            assert np.all(np.diff(h) <= 1e-12) and h[0] == pytest.approx(sup, rel=1e-12)

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
        # The estimate criterion 8 and "eta": "auto" read, to the last bit.
        assert interval.estimate == 1.170208296409094

    @pytest.mark.parametrize("alpha", [1.01, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0])
    def test_sup_hazard_frechet_exact(self, alpha):
        # scipy's pdf/sf hazard on a fine grid stays at or below the exact
        # supremum, and meets it at its argmax x* = y*^(-1/alpha), where y*
        # solves (1 + 1/alpha)(1 - e^-y) = y (found here by bisection).
        law = stats.invweibull(alpha)
        sup = dist.sup_hazard(dist.frechet(alpha)).estimate
        c = 1.0 + 1.0 / alpha
        lo, hi = 1e-3, c
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if c * -math.expm1(-mid) > mid else (lo, mid)
        x_star = lo ** (-1.0 / alpha)
        grid = np.geomspace(x_star / 20.0, x_star * 20.0, 20_001)
        assert np.max(law.pdf(grid) / law.sf(grid)) <= sup * (1.0 + 1e-14)
        assert law.pdf(x_star) / law.sf(x_star) == pytest.approx(sup, rel=1e-9)

    def test_sup_hazard_unbounded_cases_rejected(self):
        with pytest.raises(ValueError):
            dist.sup_hazard(dist.weibull(2.0))
        with pytest.raises(ValueError):
            dist.sup_hazard(dist.gamma(0.5))
        with pytest.raises(ValueError):
            dist.sup_hazard(dist.gaussian())


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


def _reference_table(kind, means, n, rng):
    """Each model's reward table written out as its own formula: the oracle
    for ``sample_table``'s sums of ``sample_array`` terms."""
    shape = (n, means.size)
    if kind == dist.POINT:
        return np.broadcast_to(means, shape).copy()
    if kind == dist.UNIFORM_SHIFT:
        return means + rng.uniform(-1.0, 1.0, shape)
    if kind == dist.RADEMACHER_SHIFT:
        return means + np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    if kind == dist.GAUSSIAN_SHIFT:
        return means + rng.standard_normal(shape)
    signs = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return means + signs + rng.standard_normal(shape)


class TestRewardTable:
    @pytest.mark.parametrize("kind", dist.REWARD_MODELS)
    @pytest.mark.parametrize("n, K", [(1, 3), (1000, 17)])
    def test_matches_reference_formulas(self, kind, n, K):
        means = np.random.default_rng(K).random(K)
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        table = dist.RewardModel(kind).sample_table(means, n, rng)
        expected = _reference_table(kind, means, n, ref_rng)
        assert table.shape == (n, K)
        assert table.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("kind", dist.REWARD_MODELS)
    def test_peak_memory(self, kind):
        # At most the table, one noise term and its boolean mask: 2.125 tables.
        means, n = np.linspace(0.0, 1.0, 50), 20_000
        model, rng = dist.RewardModel(kind), np.random.default_rng(0)
        tracemalloc.start()
        try:
            model.sample_table(means, n, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * means.size * n * 8


class TestOnDemandRows:
    @pytest.mark.parametrize(
        "bits",
        # PCG64 (default_rng's) and PCG64DXSM reach a later term's stream by
        # advance; the others draw a two-term model's every row at once.
        [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.MT19937, np.random.SFC64],
        ids=lambda bits: bits.__name__,
    )
    @settings(max_examples=40, deadline=None)
    @given(
        kind=hs.sampled_from(dist.REWARD_MODELS),
        K=hs.integers(1, 64),
        T=hs.integers(1, 3000),
        requests=hs.lists(hs.integers(0, 2999), max_size=6),
        half_draw=hs.booleans(),
        seed=hs.integers(0, 2**32 - 1),
    )
    def test_drawn_rows_are_the_whole_tables(self, bits, kind, K, T, requests, half_draw, seed):
        # Row requests in any order, ending with a jump to row T - 1: the
        # rows drawn are the reference table's first rows, byte for byte,
        # and the generator ends where the reference draw leaves it.
        def generator():
            rng = np.random.Generator(bits(seed))
            if half_draw:
                rng.integers(0, 10)  # leaves half of a 64-bit draw buffered
            return rng

        means = np.random.default_rng(K).random(K)
        rng, ref_rng = generator(), generator()
        expected = _reference_table(kind, means, T, ref_rng)
        table = dist.RewardModel(kind).reward_table(means, T, rng)
        drawn = len(table.rows)
        assert drawn in (0, T)
        for n in [r % T for r in requests] + [T - 1]:
            size = 256
            while size <= n:
                size *= 2
            drawn = max(drawn, min(size, T))
            rows = table.through(n)
            assert len(rows) == drawn
            assert rows.tobytes() == expected[:drawn].tobytes()
        np.testing.assert_equal(rng.bit_generator.state, ref_rng.bit_generator.state)  # Philox's holds arrays

    def test_every_term_but_the_last_costs_one_draw_per_entry(self):
        # RewardTable starts term j of a model j*T*K draws into its stream,
        # which holds only if every earlier term costs one 64-bit draw per
        # entry.  A model that breaks this fails here rather than silently
        # drawing new bits.
        for kind, terms in dist.REWARD_NOISE.items():
            for spec in terms[:-1]:
                assert spec.kind in (dist.UNIFORM, dist.RADEMACHER), kind
                rng, moved = np.random.default_rng(3), np.random.default_rng(3)
                dist.sample_array(spec, rng, (7, 5))
                moved.bit_generator.advance(35)
                assert rng.bit_generator.state == moved.bit_generator.state, kind
