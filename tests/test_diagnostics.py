"""Tail sums, Lyapounov ratios, centering, and truncated variance checks."""

import math

import pytest
from scipy import integrate

from mixlim import (
    InstanceParams,
    ModelParams,
    centering_a_n,
    collect_diagnostics,
    derive_instance,
    lyapounov_ratio,
    mean_z,
    mu1,
    tail_sum,
    truncated_variance,
    var_z,
)

from mixlim.diagnostics import _abs_central_moment

from conftest import oracle_abs_central_moment, oracle_centering

# E|X - 1|^3 for Exponential(1): 12/e - 2
EXP_ABS_THIRD = 12.0 / math.e - 2.0


class TestTailSum:
    def test_both_tails_exhausted(self):
        p = ModelParams(alpha=0.5, lam=1.0, gamma1=1.0, gamma2=0.5)
        inst = InstanceParams(n=1000, eps_n=0.1, m_n=100.0)
        # beta x beyond the truncation level and far into the light tail
        assert tail_sum(800.0, p, inst, beta_n=1.0) == pytest.approx(0.0, abs=1e-200)

    def test_full_heavy_mass_below_support(self):
        p = ModelParams(alpha=0.5, lam=1.0, gamma1=1.0, gamma2=0.5)
        inst = InstanceParams(n=1000, eps_n=0.1, m_n=100.0)
        value = tail_sum(0.5, p, inst, beta_n=1.0)
        light = 1000 * 0.9 * math.exp(-0.5)
        assert value == pytest.approx(light + 1000 * 0.1, rel=1e-12)

    def test_stable_zone_levy_tail(self):
        """n eps beta^-alpha = 1 exactly, so the tail sum approximates x^-alpha."""
        p = ModelParams(alpha=0.5, lam=1.0, gamma1=2.0, gamma2=0.6)
        n = 10**6
        inst = derive_instance(p, n)
        beta = float(n) ** 0.8
        for x in (0.5, 1.0, 2.0):
            assert tail_sum(x, p, inst, beta) == pytest.approx(x**-0.5, rel=0.02)

    def test_nonincreasing_in_x(self):
        p = ModelParams(alpha=0.5, lam=1.0, gamma1=2.0, gamma2=0.6)
        inst = derive_instance(p, 10**4)
        beta = float(10**4) ** 0.8
        values = [tail_sum(x, p, inst, beta) for x in
                  (0.01, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


class TestLyapounov:
    def test_pure_light_matches_closed_form(self):
        p = ModelParams(alpha=0.5, lam=1.0, gamma1=1.0, gamma2=0.5)
        for n in (10**3, 10**4):
            inst = InstanceParams(n=n, eps_n=0.0, m_n=100.0)
            expected = EXP_ABS_THIRD / (math.sqrt(n) * 1.0)
            assert lyapounov_ratio(p, inst, delta=1.0) == pytest.approx(expected, rel=1e-6)

    def test_clt_zone_strictly_decreasing(self):
        # the alpha=1.5 point carries an O(1) heavy term in the 2.5-moment,
        # so its n**(delta/2) decay shows one decade later than the others
        cases = (
            (0.5, 1.0, 2.0, (10**3, 10**4, 10**5)),
            (0.8, 0.4, 0.9, (10**3, 10**4, 10**5)),
            (1.5, 1.0, 1.0, (10**4, 10**5, 10**6)),
        )
        for alpha, g1, g2, ladder in cases:
            p = ModelParams(alpha=alpha, lam=1.0, gamma1=g1, gamma2=g2)
            values = [lyapounov_ratio(p, derive_instance(p, n), 0.5) for n in ladder]
            assert values[0] > values[1] > values[2]
            assert values[2] < values[0] / 3.0

    def test_stable_zone_not_vanishing(self):
        p = ModelParams(alpha=0.5, lam=1.0, gamma1=2.0, gamma2=0.6)
        values = [lyapounov_ratio(p, derive_instance(p, n), 0.5) for n in (10**3, 10**4, 10**5)]
        assert values[2] >= values[1]

    def test_rejects_bad_delta(self):
        p = ModelParams(alpha=0.5, lam=1.0, gamma1=1.0, gamma2=0.5)
        with pytest.raises(ValueError):
            lyapounov_ratio(p, derive_instance(p, 100), delta=0.0)

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 1.0, 1.5, 1.99])
    @pytest.mark.parametrize("lam", [0.3, 2.0])
    @pytest.mark.parametrize("order", [2.5, 3.0])
    @pytest.mark.parametrize("n", [2, 10**4, 10**8])
    def test_abs_moment_matches_quadrature_oracle(self, alpha, lam, order, n):
        """E|Z - EZ|**order within 1e-9 of quadrature.  gamma1 = 0.5 puts EZ
        above m at n = 2 and lam = 0.3; gamma1 = 2 puts it inside [1, m] or,
        at lam = 2, below 1."""
        for gamma1, gamma2 in ((0.5, 0.6), (2.0, 0.3)):
            p = ModelParams(alpha=alpha, lam=lam, gamma1=gamma1, gamma2=gamma2)
            inst = derive_instance(p, n)
            want = oracle_abs_central_moment(lam, alpha, inst.eps_n, inst.m_n, order)
            assert _abs_central_moment(p, inst, order) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("order", [2.5, 3.0])
    def test_abs_moment_center_far_above_light_mass(self, order):
        """EZ ~ 3.8e15 at alpha = 0.05, gamma1 = 3, gamma2 = 0.05, n = 1e6: a rule
        over all of [0, EZ] would place no node where e^-x lives."""
        p = ModelParams(alpha=0.05, lam=1.0, gamma1=3.0, gamma2=0.05)
        inst = derive_instance(p, 10**6)
        want = oracle_abs_central_moment(1.0, 0.05, inst.eps_n, inst.m_n, order)
        assert _abs_central_moment(p, inst, order) == pytest.approx(want, rel=1e-9)


class TestCentering:
    def test_pure_light_limit(self):
        p = ModelParams(alpha=0.5, lam=2.0, gamma1=1.0, gamma2=0.5)
        inst = InstanceParams(n=10**6, eps_n=0.0, m_n=100.0)
        beta = 500.0
        value = centering_a_n(p, inst, beta)
        assert value == pytest.approx(inst.n / beta * (1.0 / p.lam), rel=1e-9)

    def test_matches_quadrature_oracle(self):
        for alpha in (0.3, 0.8, 1.2, 1.9):
            for beta in (5.0, 80.0):
                p = ModelParams(alpha=alpha, lam=1.3, gamma1=1.0, gamma2=1.0)
                inst = InstanceParams(n=1000, eps_n=0.05, m_n=1e4)
                want = oracle_centering(1.3, alpha, 0.05, 1e4, 1000, beta)
                assert centering_a_n(p, inst, beta) == pytest.approx(want, rel=1e-8)

    def test_compensation_constant_emerges(self):
        """a_n - n E[X]/beta -> alpha/(1-alpha) in the fully compensated zone."""
        p = ModelParams(alpha=0.5, lam=1.0, gamma1=2.0, gamma2=0.3)
        n = 10**6
        inst = derive_instance(p, n)
        beta = float(n) ** 1.4
        gap = centering_a_n(p, inst, beta) - n * mu1(1.0, p.lam) / beta
        assert gap == pytest.approx(1.0, rel=0.02)

    def test_rejects_empty_window(self):
        p = ModelParams(alpha=0.5, lam=1.0, gamma1=1.0, gamma2=0.5)
        inst = derive_instance(p, 100)
        with pytest.raises(ValueError):
            centering_a_n(p, inst, 1.0 + 1e-9)


class TestTruncatedVariance:
    def test_clt_normalization_gives_one(self):
        p = ModelParams(alpha=0.5, lam=1.0, gamma1=1.0, gamma2=0.5)
        n = 10**4
        inst = InstanceParams(n=n, eps_n=0.0, m_n=100.0)
        beta = math.sqrt(n * 1.0)  # sqrt(n Var X)
        value = truncated_variance(p, inst, beta, tau=10**6 / beta)
        assert value == pytest.approx(1.0, rel=1e-6)

    def test_vanishing_window(self):
        p = ModelParams(alpha=0.5, lam=1.0, gamma1=2.0, gamma2=0.6)
        inst = derive_instance(p, 10**4)
        beta = float(10**4) ** 0.8
        values = [truncated_variance(p, inst, beta, tau) for tau in (0.1, 0.01, 0.001)]
        assert values[0] > values[1] > values[2]
        assert values[2] < 0.2 * values[0]

    def test_stable_zone_bounded(self):
        p = ModelParams(alpha=0.5, lam=1.0, gamma1=2.0, gamma2=0.6)
        for n in (10**4, 10**5, 10**6):
            inst = derive_instance(p, n)
            beta = float(n) ** 0.8
            assert 0.0 < truncated_variance(p, inst, beta, 0.1) < 1.0

    def test_report_bundle(self):
        p = ModelParams(alpha=0.5, lam=1.0, gamma1=2.0, gamma2=0.6)
        inst = derive_instance(p, 10**4)
        report = collect_diagnostics(p, inst, beta_n=float(10**4) ** 0.8)
        assert set(report.tail_sum_values) == {0.5, 1.0, 2.0}
        assert all(v >= 0.0 for v in report.tail_sum_values.values())
        assert report.lyapounov > 0.0
        assert report.centering_a_n > 0.0
        assert report.truncated_var > 0.0

    def test_matches_direct_quadrature(self):
        p = ModelParams(alpha=0.8, lam=1.0, gamma1=1.0, gamma2=0.5)
        inst = InstanceParams(n=100, eps_n=0.2, m_n=50.0)
        beta, tau = 7.0, 1.3
        cut = beta * tau

        def mix_moment(s):
            light, _ = integrate.quad(
                lambda x: x**s * math.exp(-x), 0.0, cut, epsrel=1e-11, epsabs=0.0
            )
            heavy, _ = integrate.quad(
                lambda x: x**s * 0.8 * x**-1.8 / (1.0 - 50.0**-0.8),
                1.0, min(cut, 50.0), epsrel=1e-11, epsabs=0.0,
            )
            return 0.8 * light + 0.2 * heavy

        want = 100 * (mix_moment(2) / beta**2 - (mix_moment(1) / beta) ** 2)
        got = truncated_variance(p, inst, beta, tau)
        assert got == pytest.approx(want, rel=1e-9)
