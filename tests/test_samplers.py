"""Stream determinism, inverse-CDF correctness, and sum-driver contracts."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixlim import samplers
from mixlim import (
    InstanceParams,
    ModelParams,
    NormalizationPlan,
    RngStream,
    derive_instance,
    ks_one_sample,
    mean_z,
    monte_carlo,
    quantile_light,
    quantile_truncated_pareto,
    sample_mixture,
    sample_sum,
    substream_seed,
    var_z,
)

GOLDEN = 0x9E3779B97F4A7C15
MASK = (1 << 64) - 1


def _reference_mix(z: int) -> int:
    """Independent transcription of the SplitMix64 finalizer."""
    z &= MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK
    z ^= z >> 31
    return z


def _unxorshift(y: int, shift: int) -> int:
    """Inverse of x -> x ^ (x >> shift) on 64-bit words."""
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def _reference_unmix(z: int) -> int:
    """Inverse of the SplitMix64 finalizer: each xorshift and odd multiply undone."""
    z = _unxorshift(z, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & MASK
    z = _unxorshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & MASK
    return _unxorshift(z, 30)


def _seed_with_word(j: int, word: int) -> int:
    """Seed of the stream whose output j is the raw 64-bit ``word``."""
    return (_reference_unmix(word) - j * GOLDEN) & MASK


def _float_rule(b: int, eps: float) -> bool:
    """Heavy branch by the float rule: the uniform of the top 53 bits b is <= eps."""
    return min((b + 0.5) * 2.0**-53, 1.0 - 2.0**-53) <= eps


def _reference_row_sum(seed: int, p: ModelParams, inst: InstanceParams) -> float:
    """One row sum by the plain per-row formula: float branch test, np.sum."""
    u = RngStream(seed).uniforms(2 * inst.n)
    values = quantile_light(u[1::2], p.lam)
    heavy = u[0::2] <= inst.eps_n
    values[heavy] = quantile_truncated_pareto(u[1::2][heavy], p.alpha, inst.m_n)
    return float(np.sum(values))


class _FakeStream:
    """Deterministic uniform feeder for forced-branch tests."""

    def __init__(self, values):
        self.values = list(values)
        self.position = 0

    def uniforms(self, count):
        out = np.array(self.values[:count], dtype=np.float64)
        self.values = self.values[count:]
        self.position += count
        return out


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(42).uniforms(100)
        b = RngStream(42).uniforms(100)
        assert np.array_equal(a, b)

    def test_block_size_invariance(self):
        whole = RngStream(7).uniforms(64)
        rng = RngStream(7)
        pieces = np.concatenate([rng.uniforms(5), rng.uniforms(30), rng.uniforms(29)])
        assert np.array_equal(whole, pieces)

    def test_open_unit_interval(self):
        u = RngStream(3).uniforms(10**5)
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_all_ones_word_gives_uniform_below_one(self):
        seed = _seed_with_word(1, MASK)
        assert _reference_mix(seed + GOLDEN) == MASK
        u = RngStream(seed).uniforms(1)
        assert u[0] < 1.0
        assert u[0] == 1.0 - 2.0**-53

    def test_all_ones_value_word_gives_finite_draws(self):
        seed = _seed_with_word(2, MASK)
        p = ModelParams(alpha=0.5, lam=1.0, gamma1=1.0, gamma2=0.5)
        light = InstanceParams(n=1, eps_n=0.0, m_n=100.0)
        heavy = InstanceParams(n=1, eps_n=1.0 - 2.0**-53, m_n=100.0)
        assert sample_sum(RngStream(seed), p, light) == pytest.approx(53 * math.log(2.0))
        assert sample_mixture(RngStream(seed), p, light) == pytest.approx(53 * math.log(2.0))
        assert sample_sum(RngStream(seed), p, heavy) == pytest.approx(100.0)
        # replicate 0 of master seed unmix(seed) uses this stream
        identity = NormalizationPlan(center=0.0, scale=1.0, limit="std_normal")
        sample = monte_carlo(p, 2, 1, _reference_unmix(seed), identity)
        assert np.all(np.isfinite(sample.values))

    def test_substream_formula(self):
        master = 987654321
        for k in (0, 1, 17, 2**40):
            expected = _reference_mix(master ^ ((k * GOLDEN) & MASK))
            assert substream_seed(master, k) == expected

    def test_substreams_differ(self):
        seeds = {substream_seed(42, k) for k in range(1000)}
        assert len(seeds) == 1000

    def test_uniform_marginals(self):
        u = np.sort(RngStream(11).uniforms(10**5))
        result = ks_one_sample(u, lambda x: x, level=0.01)
        assert result.passed


class TestQuantiles:
    def test_light_examples(self):
        assert quantile_light(0.0, 1.0) == 0.0
        assert quantile_light(0.5, 1.0) == pytest.approx(math.log(2.0), rel=1e-15)
        assert quantile_light(1.0 - math.exp(-2.0), 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_light_domain(self):
        with pytest.raises(ValueError):
            quantile_light(1.0, 1.0)
        with pytest.raises(ValueError):
            quantile_light(-0.1, 1.0)

    def test_pareto_examples(self):
        assert quantile_truncated_pareto(0.0, 0.5, 100.0) == 1.0
        assert quantile_truncated_pareto(1.0, 0.5, 100.0) == pytest.approx(100.0, rel=1e-12)
        assert quantile_truncated_pareto(0.75, 1.0, 4.0) == pytest.approx(
            16.0 / 7.0, rel=1e-14
        )

    def test_pareto_domain(self):
        with pytest.raises(ValueError):
            quantile_truncated_pareto(1.1, 0.5, 10.0)
        with pytest.raises(ValueError):
            quantile_truncated_pareto(0.5, 0.5, 1.0)

    @settings(max_examples=300, deadline=None)
    @given(u=st.floats(0.0, 0.999999), lam=st.floats(0.1, 10.0))
    def test_light_roundtrip(self, u, lam):
        x = quantile_light(u, lam)
        assert -math.expm1(-lam * x) == pytest.approx(u, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        u=st.floats(0.0, 1.0),
        alpha=st.floats(0.05, 1.95),
        m=st.floats(1.5, 1e6),
    )
    def test_pareto_roundtrip(self, u, alpha, m):
        x = quantile_truncated_pareto(u, alpha, m)
        assert 1.0 <= x <= m * (1.0 + 1e-12)
        cdf = (1.0 - x**-alpha) / (1.0 - m**-alpha)
        assert cdf == pytest.approx(u, abs=1e-9)

    def test_pareto_monotone(self):
        u = np.linspace(0.0, 1.0, 1001)
        x = quantile_truncated_pareto(u, 0.5, 50.0)
        assert np.all(np.diff(x) >= 0.0)
        x_bigger_m = quantile_truncated_pareto(u, 0.5, 200.0)
        assert np.all(x_bigger_m >= x)

    def test_pareto_draws_match_cdf(self):
        alpha, m = 0.7, 1e4
        u = RngStream(5).uniforms(10**5)
        draws = np.sort(quantile_truncated_pareto(u, alpha, m))

        def cdf(x):
            return (1.0 - np.asarray(x) ** -alpha) / (1.0 - m**-alpha)

        result = ks_one_sample(draws, cdf, level=0.01)
        assert result.statistic < 1.63 / math.sqrt(10**5)


class TestSampleMixture:
    def test_forced_light(self):
        p = ModelParams(alpha=0.5, lam=1.0, gamma1=1.0, gamma2=0.5)
        inst = InstanceParams(n=100, eps_n=0.1, m_n=100.0)
        stream = _FakeStream([0.99, 0.5])
        assert sample_mixture(stream, p, inst) == pytest.approx(math.log(2.0))

    def test_forced_heavy(self):
        p = ModelParams(alpha=0.5, lam=1.0, gamma1=1.0, gamma2=0.5)
        inst = InstanceParams(n=100, eps_n=0.1, m_n=100.0)
        stream = _FakeStream([0.05, 0.0])
        assert sample_mixture(stream, p, inst) == 1.0

    def test_fixed_two_uniform_consumption(self):
        p = ModelParams(alpha=0.5, lam=1.0, gamma1=1.0, gamma2=0.5)
        inst = InstanceParams(n=100, eps_n=0.5, m_n=100.0)
        rng = RngStream(9)
        for k in range(1, 51):
            sample_mixture(rng, p, inst)
            assert rng.position == 2 * k

    def test_heavy_fraction(self):
        p = ModelParams(alpha=0.5, lam=1.0, gamma1=1.0, gamma2=0.5)
        inst = InstanceParams(n=10**6, eps_n=0.1, m_n=100.0)
        rng = RngStream(31)
        u = rng.uniforms(2 * 10**6)
        fraction = float(np.mean(u[0::2] <= inst.eps_n))
        assert abs(fraction - 0.1) < 1e-3


class TestBranchThreshold:
    """The integer heavy-branch test agrees with the float rule at its edge."""

    @staticmethod
    def _check_edges(eps: float) -> None:
        threshold = samplers._branch_threshold(eps)
        assert 0 <= threshold <= 2**53
        if threshold > 0:
            assert _float_rule(threshold - 1, eps)
        if threshold < 2**53:
            assert not _float_rule(threshold, eps)

    @pytest.mark.parametrize(
        "eps",
        [0.0, 2.0**-60, 2.0**-54, 2.0**-53, 2.0**-52, 2.0**-20, 2.0**-1, 1.0]
        + [
            math.nextafter(e, d)
            for e in (2.0**-53, 2.0**-52, 0.1, 0.5, 1.0 - 2.0**-53)
            for d in (0.0, 1.0)
        ]
        # eps_n of the golden-digest configurations
        + [600_000.0**-0.3, 100_000.0**-2.0, 100.0**-0.3, 1000.0**-0.3,
           10_000.0**-0.3, 2000.0**-0.5, 3000.0**-0.4],
    )
    def test_boundary_words(self, eps):
        self._check_edges(eps)

    @settings(max_examples=300, deadline=None)
    @given(eps=st.floats(0.0, 1.0))
    def test_boundary_words_property(self, eps):
        self._check_edges(eps)

    @pytest.mark.parametrize("eps", [2.0**-20, 0.1, 600_000.0**-0.3])
    def test_kernel_branch_at_boundary_words(self, eps):
        """Streams whose branch word sits on either side of the threshold."""
        p = ModelParams(alpha=0.5, lam=1.0, gamma1=1.0, gamma2=0.5)
        inst = InstanceParams(n=1, eps_n=eps, m_n=100.0)
        threshold = samplers._branch_threshold(eps)
        for word in ((threshold - 1) << 11 | 0x7FF, threshold << 11):
            seed = _seed_with_word(1, word)
            assert sample_sum(RngStream(seed), p, inst) == sample_mixture(
                RngStream(seed), p, inst
            )


class TestSampleSum:
    def test_n_one_row_matches_single_draw(self):
        p = ModelParams(alpha=0.5, lam=1.0, gamma1=1.0, gamma2=0.5)
        inst = InstanceParams(n=1, eps_n=0.1, m_n=100.0)
        total = sample_sum(RngStream(13), p, inst)
        single = sample_mixture(RngStream(13), p, inst)
        assert total == single

    def test_accumulation_accuracy(self):
        """Blockwise pairwise summation matches exact fsum to 1e-12 relative."""
        p = ModelParams(alpha=0.3, lam=1.0, gamma1=2.0, gamma2=0.3)
        n = 10**6
        inst = derive_instance(p, n)
        total = sample_sum(RngStream(77), p, inst)

        rng = RngStream(77)
        u = rng.uniforms(2 * n)
        values = quantile_light(u[1::2], p.lam)
        heavy = u[0::2] <= inst.eps_n
        values[heavy] = quantile_truncated_pareto(u[1::2][heavy], p.alpha, inst.m_n)
        exact = math.fsum(values)
        assert abs(total - exact) <= 1e-12 * abs(exact)

    def test_pure_light_law_of_large_numbers(self):
        p = ModelParams(alpha=0.5, lam=2.0, gamma1=1.0, gamma2=0.5)
        inst = InstanceParams(n=10**5, eps_n=0.0, m_n=100.0)
        total = sample_sum(RngStream(3), p, inst)
        sigma = math.sqrt(inst.n / p.lam**2)
        assert abs(total - inst.n / p.lam) < 4.0 * sigma

    def test_mean_of_sums_matches_mixture_mean(self):
        p = ModelParams(alpha=0.5, lam=1.0, gamma1=1.0, gamma2=0.5)
        n, reps = 10**3, 10**4
        identity = NormalizationPlan(center=0.0, scale=1.0, limit="std_normal")
        sums = monte_carlo(p, n, reps, 1234, identity, thread_count=4)
        inst = derive_instance(p, n)
        se = math.sqrt(var_z(p, inst) / (n * reps))
        assert abs(float(np.mean(sums.values)) / n - mean_z(p, inst)) < 4.0 * se


class TestMonteCarlo:
    def test_thread_count_invariance(self):
        p = ModelParams(alpha=0.5, lam=1.0, gamma1=2.0, gamma2=0.6)
        plan = NormalizationPlan(center=10.0, scale=3.0, limit="std_normal")
        single = monte_carlo(p, 500, 24, 42, plan, thread_count=1)
        threaded = monte_carlo(p, 500, 24, 42, plan, thread_count=4)
        assert np.array_equal(single.values, threaded.values)
        assert single.heavy_count_mean == threaded.heavy_count_mean
        # 300 rows of 500 draws span several blocks, the last one partial;
        # rows of 2**19 + 3 draws span two summation chunks
        assert 300 % (samplers._BLOCK // 500) != 0
        for n, replicates in ((500, 300), (2**19 + 3, 3)):
            single = monte_carlo(p, n, replicates, 42, plan, thread_count=1)
            for threads in (2, 3, 8):
                threaded = monte_carlo(p, n, replicates, 42, plan, thread_count=threads)
                assert np.array_equal(single.values, threaded.values)
                assert single.heavy_count_mean == threaded.heavy_count_mean

    def test_block_size_invariance(self, monkeypatch):
        p = ModelParams(alpha=1.5, lam=0.3, gamma1=1.0, gamma2=0.5)
        plan = NormalizationPlan(center=0.0, scale=1.0, limit="std_normal")
        default = monte_carlo(p, 700, 200, 5, plan)
        for block in (1, 1000, 7 * 700, 10**6):
            monkeypatch.setattr(samplers, "_BLOCK", block)
            blocked = monte_carlo(p, 700, 200, 5, plan)
            assert np.array_equal(default.values, blocked.values)
            assert default.heavy_count_mean == blocked.heavy_count_mean

    @pytest.mark.parametrize(
        "point, n",
        [
            ((0.5, 1.0, 2.0, 0.3), 1000),
            ((1.5, 0.3, 1.0, 0.5), 2000),
            ((0.5, 2.0, 1.0, 2.0), 37),
            # one chunk of two full 2**16-draw tiles and a partial one
            ((0.5, 1.0, 2.0, 0.3), 3 * 2**16 + 5),
        ],
    )
    def test_matches_reference_row_sums(self, point, n):
        """The blocked kernel gives the per-row formula's sums bit for bit."""
        alpha, lam, gamma1, gamma2 = point
        p = ModelParams(alpha=alpha, lam=lam, gamma1=gamma1, gamma2=gamma2)
        identity = NormalizationPlan(center=0.0, scale=1.0, limit="std_normal")
        sample = monte_carlo(p, n, 70, 11, identity, thread_count=2)
        inst = derive_instance(p, n)
        for k in range(70):
            assert sample.values[k] == _reference_row_sum(substream_seed(11, k), p, inst)

    def test_long_row_allocation_bound(self):
        """Rows of 10**6 draws hold one 2**19-draw chunk (4 MiB) and tile-sized scratch."""
        p = ModelParams(alpha=0.5, lam=1.0, gamma1=2.0, gamma2=0.3)
        identity = NormalizationPlan(center=0.0, scale=1.0, limit="std_normal")
        tracemalloc.start()
        try:
            monte_carlo(p, 10**6, 2, 0, identity, thread_count=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_identity_plan_returns_raw_sums(self):
        p = ModelParams(alpha=0.5, lam=1.0, gamma1=1.0, gamma2=0.5)
        identity = NormalizationPlan(center=0.0, scale=1.0, limit="std_normal")
        sample = monte_carlo(p, 2, 3, 99, identity)
        inst = derive_instance(p, 2)
        for k in range(3):
            rng = RngStream(substream_seed(99, k))
            assert sample.values[k] == sample_sum(rng, p, inst)

    def test_values_ordered_by_replicate(self):
        p = ModelParams(alpha=0.5, lam=1.0, gamma1=1.0, gamma2=0.5)
        plan = NormalizationPlan(center=0.0, scale=1.0, limit="std_normal")
        a = monte_carlo(p, 100, 10, 7, plan, thread_count=1)
        b = monte_carlo(p, 100, 10, 7, plan, thread_count=3)
        c = monte_carlo(p, 100, 10, 7, plan, thread_count=8)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.values, c.values)

    def test_standardized_mean_near_zero_in_clt_zone(self):
        from mixlim import classify, normalization_plan

        p = ModelParams(alpha=0.5, lam=1.0, gamma1=1.0, gamma2=2.0)
        n, reps = 10**4, 400
        plan = normalization_plan(p, derive_instance(p, n), classify(0.5, 1.0, 2.0))
        sample = monte_carlo(p, n, reps, 42, plan, thread_count=4)
        assert abs(float(np.mean(sample.values))) < 4.0 / math.sqrt(reps)

    def test_rejects_bad_arguments(self):
        p = ModelParams(alpha=0.5, lam=1.0, gamma1=1.0, gamma2=0.5)
        plan = NormalizationPlan(center=0.0, scale=1.0, limit="std_normal")
        with pytest.raises(ValueError):
            monte_carlo(p, 100, 0, 1, plan)
        with pytest.raises(ValueError):
            monte_carlo(p, 1, 10, 1, plan)
