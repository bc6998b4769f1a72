import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy.special import gamma as gamma_fn

from perturbed_bandits import distributions as dist
from perturbed_bandits import extremes as ex


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


class TestMcBlockMax:
    def test_single_draw_is_distribution_mean(self, rng):
        est, se = ex.mc_expected_block_max(dist.gumbel(), 1, 10**5, rng)
        assert abs(est - np.euler_gamma) <= 3.0 * se

    def test_gumbel_k1000(self, rng):
        est, se = ex.mc_expected_block_max(dist.gumbel(), 1000, 10**5, rng)
        assert abs(est - (math.log(1000) + np.euler_gamma)) <= 3.0 * se
        assert est == pytest.approx(7.4850, abs=3.0 * se + 1e-9)

    def test_frechet_k100(self, rng):
        est, _ = ex.mc_expected_block_max(dist.frechet(2.0), 100, 10**5, rng)
        assert est == pytest.approx(gamma_fn(0.5) * 10.0, rel=0.05)

    def test_monotone_in_block_size(self, rng):
        for spec in (dist.gumbel(), dist.gamma(2.0), dist.pareto(2.0)):
            prev, prev_se = -np.inf, 0.0
            for K in (3, 30, 300):
                est, se = ex.mc_expected_block_max(spec, K, 20_000, rng)
                assert est > prev - 3.0 * (se + prev_se)
                prev, prev_se = est, se

    def test_preconditions(self, rng):
        with pytest.raises(ValueError):
            ex.mc_expected_block_max(dist.gumbel(), 0, 1000, rng)
        with pytest.raises(ValueError):
            ex.mc_expected_block_max(dist.gumbel(), 5, 50, rng)


def oracle_block_max(spec, K, n_blocks, rng):
    """mc_expected_block_max with every chunk of blocks drawn as one array."""
    total = total_sq = 0.0
    chunk = max(1, ex._CHUNK // K)
    for done in range(0, n_blocks, chunk):
        maxima = dist.sample_array(spec, rng, (min(chunk, n_blocks - done), K)).max(axis=1)
        total += float(maxima.sum())
        total_sq += float(np.square(maxima).sum())
    mean = total / n_blocks
    return mean, math.sqrt(max(total_sq / n_blocks - mean * mean, 0.0) / n_blocks)


def oracle_specs(K):
    """The verification table's distributions and the Frechet of tail index log K."""
    return ex.TABLE_SPECS + (dist.frechet(math.log(max(K, 3))),)


def assert_same_block_maxima(spec, K, m, seed):
    fast, whole = np.random.default_rng(seed), np.random.default_rng(seed)
    got = dist.sample_block_max(spec, fast, m, K)
    want = dist.sample_array(spec, whole, (m, K)).max(axis=1)
    assert got.tobytes() == want.tobytes()
    assert fast.bit_generator.state == whole.bit_generator.state


class TestBlockMaxOracle:
    """The piecewise draw gives the bits and the stream of whole-chunk draws."""

    @settings(max_examples=40, deadline=None)
    @given(data=hs.data(), K=hs.integers(1, 3000), n_blocks=hs.integers(100, 300), seed=hs.integers(0, 2**32 - 1))
    def test_matches_whole_chunk_draws(self, data, K, n_blocks, seed):
        # Pieces and chunks shrunk to the block size, so that piece ends
        # (a single row when the piece is below K) and chunk ends all fall
        # inside one small draw.
        piece = data.draw(hs.integers(max(1, K // 4), 3 * K), label="piece")
        chunk = data.draw(hs.integers(1, 400 * K), label="chunk")
        with mock.patch.object(dist, "_PIECE", piece), mock.patch.object(ex, "_CHUNK", chunk):
            for spec in oracle_specs(K):
                assert_same_block_maxima(spec, K, n_blocks, seed)
                fast, whole = np.random.default_rng(seed), np.random.default_rng(seed)
                assert ex.mc_expected_block_max(spec, K, n_blocks, fast) == oracle_block_max(
                    spec, K, n_blocks, whole
                )
                assert fast.bit_generator.state == whole.bit_generator.state

    @pytest.mark.parametrize("K", [1000, dist._PIECE + 5])
    def test_matches_at_the_real_piece_size(self, K):
        # Many rows per piece at K=1000, one row at K > _PIECE; the kinds
        # with native samplers take the maxima of sample_array's pieces.
        m = max(3, 2 * (dist._PIECE // K) + 7)
        native = (dist.gaussian(2.0), dist.uniform(), dist.rademacher(), dist.double_exponential())
        for spec in oracle_specs(K) + native:
            assert_same_block_maxima(spec, K, m, 2019)


class TestBlockMaxMemory:
    CASES = [(spec, 1000, 20_000) for spec in ex.TABLE_SPECS] + [(dist.gumbel(), (1 << 20) + 1, 100)]

    @pytest.mark.parametrize("spec, K, n_blocks", CASES, ids=[f"{c[0].kind}-K{c[1]}" for c in CASES])
    def test_peak_stays_a_piece(self, spec, K, n_blocks):
        # Drawn as one array, the 20,000 blocks of 1,000 alone took 160 MB.
        # A block longer than a piece is drawn as one row of K doubles.
        tracemalloc.start()
        try:
            ex.mc_expected_block_max(spec, K, n_blocks, np.random.default_rng(7))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * max(dist._PIECE, K) + 6 * 2**20


class TestNormalizingConstants:
    def test_pareto(self):
        a, b, t = ex.normalizing_constants(dist.pareto(2.0), 100)
        assert (a, b, t) == (9.0, 0.0, ex.FRECHET_TYPE)

    def test_frechet(self):
        a, b, t = ex.normalizing_constants(dist.frechet(2.0), 100)
        assert a == pytest.approx((-math.log1p(-0.01)) ** -0.5, abs=1e-12)
        assert b == 0.0 and t == ex.FRECHET_TYPE

    def test_gumbel(self):
        a, b, t = ex.normalizing_constants(dist.gumbel(), 10)
        assert b == pytest.approx(-math.log(-math.log(0.9)), abs=1e-12)
        assert b == pytest.approx(2.2504, abs=1e-4)
        assert t == ex.GUMBEL_TYPE

    def test_gamma(self):
        a, b, t = ex.normalizing_constants(dist.gamma(2.0), 1000)
        lk = math.log(1000)
        assert a == 1.0
        assert b == pytest.approx(lk + math.log(lk), abs=1e-12)

    def test_weibull(self):
        a, b, _ = ex.normalizing_constants(dist.weibull(0.5), 100)
        lk = math.log(100)
        assert b == pytest.approx((1 + lk) ** 2 - 1, abs=1e-10)
        assert a == pytest.approx(2.0 * lk, abs=1e-10)

    def test_unsupported(self):
        with pytest.raises(ValueError):
            ex.normalizing_constants(dist.weibull(2.0), 100)
        with pytest.raises(ValueError):
            ex.normalizing_constants(dist.gaussian(), 100)


class TestAsymptotics:
    def test_gumbel_k1000(self):
        assert ex.asymptotic_block_max(dist.gumbel(), 1000) == pytest.approx(7.485, abs=1e-3)

    def test_pareto_k100(self):
        assert ex.asymptotic_block_max(dist.pareto(2.0), 100) == pytest.approx(
            gamma_fn(0.5) * 9.0, rel=1e-9
        )

    def test_weibull_alpha_one_matches_gumbel_rate(self):
        # alpha = 1 reduces to Exp(1): E[M_K] ~ log K + gamma.
        val = ex.asymptotic_block_max(dist.weibull(1.0), 10**4)
        assert val == pytest.approx(math.log(10**4) + np.euler_gamma, rel=0.01)


class TestVerification:
    def test_gumbel_relative_deviation_shrinks(self, rng):
        devs = []
        for K in (100, 1000, 10_000):
            est, _ = ex.mc_expected_block_max(dist.gumbel(), K, 40_000, rng)
            asym = ex.asymptotic_block_max(dist.gumbel(), K)
            devs.append(abs(est - asym) / asym)
        assert devs[-1] < 0.01

    def test_gumbel_type_log_growth(self, rng):
        # Both increments are Theta(log K); Gamma(alpha) carries the extra
        # (alpha-1) log log-ratio term from its b_K, which at reachable K is
        # not yet negligible against log K.
        e1, _ = ex.mc_expected_block_max(dist.gumbel(), 100, 40_000, rng)
        e2, _ = ex.mc_expected_block_max(dist.gumbel(), 100**2, 40_000, rng)
        assert e2 - e1 == pytest.approx(math.log(100), rel=0.10)
        g1, _ = ex.mc_expected_block_max(dist.gamma(2.0), 100, 40_000, rng)
        g2, _ = ex.mc_expected_block_max(dist.gamma(2.0), 100**2, 40_000, rng)
        assert g2 - g1 == pytest.approx(math.log(100) + math.log(2.0), rel=0.10)

    def test_frechet_type_power_growth(self, rng):
        for spec in (dist.frechet(2.0), dist.pareto(2.0)):
            e1, _ = ex.mc_expected_block_max(spec, 100, 40_000, rng)
            e2, _ = ex.mc_expected_block_max(spec, 100**2, 40_000, rng)
            assert e2 / e1 == pytest.approx(100 ** 0.5, rel=0.10)

    def test_frechet_log_k_shape_keeps_block_max_constant(self, rng):
        # With tail index log K, the expected maximum stays ~e regardless of K.
        for K in (100, 1000):
            spec = dist.frechet(math.log(K))
            est, _ = ex.mc_expected_block_max(spec, K, 40_000, rng)
            bound = math.e * gamma_fn(1.0 - 1.0 / math.log(K))
            assert est == pytest.approx(bound, rel=0.10)

    def test_verify_table_passes_at_k1000(self, rng):
        reports = ex.verify_table1([1000], 30_000, rng)
        assert len(reports) == 5
        assert all(r.passed for r in reports)
        gamma_row = next(r for r in reports if r.spec.kind == dist.GAMMA)
        assert gamma_row.tolerance == 0.10

    def test_empty_k_list_rejected(self, rng):
        with pytest.raises(ValueError):
            ex.verify_table1([], 1000, rng)

    def test_csv_emission(self, rng, tmp_path):
        reports = ex.verify_table1([100], 5_000, rng)
        path = tmp_path / "table.csv"
        ex.reports_to_csv(reports, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "distribution,params,K,mc,stderr,asymptotic,a_K,b_K,type,pass"
        assert len(lines) == 6
