"""Exact-moment formulas against quadrature oracles and stated examples."""

import math

import numpy as np
import pytest
from scipy import integrate

from mixlim import (
    InstanceParams,
    ModelParams,
    derive_instance,
    mean_z,
    mean_z_asymptotic,
    mu1,
    mu2,
    var_z,
    var_z_asymptotic,
)

from conftest import oracle_mean_z, oracle_mu1, oracle_mu2, oracle_var_z

GAMMA_1P5 = 0.8862269254527580  # Gamma(1.5), quadrature of int sqrt(x) e^-x


class TestParams:
    def test_valid_construction(self):
        p = ModelParams(alpha=0.5, lam=1.0, gamma1=1.0, gamma2=0.5)
        assert p.alpha == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=0.0, lam=1.0, gamma1=1.0, gamma2=1.0),
            dict(alpha=2.0, lam=1.0, gamma1=1.0, gamma2=1.0),
            dict(alpha=0.5, lam=0.0, gamma1=1.0, gamma2=1.0),
            dict(alpha=0.5, lam=1.0, gamma1=0.0, gamma2=1.0),
            dict(alpha=0.5, lam=1.0, gamma1=1.0, gamma2=-1.0),
        ],
    )
    def test_invalid_construction(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)

    def test_instance_rejects_degenerate(self):
        with pytest.raises(ValueError):
            InstanceParams(n=10, eps_n=1.0, m_n=100.0)
        with pytest.raises(ValueError):
            InstanceParams(n=10, eps_n=0.1, m_n=1.0)

    def test_instance_allows_pure_light_row(self):
        inst = InstanceParams(n=10, eps_n=0.0, m_n=100.0)
        assert inst.eps_n == 0.0


class TestDeriveInstance:
    def test_exact_powers_of_ten(self):
        p = ModelParams(alpha=0.5, lam=1.0, gamma1=1.0, gamma2=0.5)
        inst = derive_instance(p, 100)
        assert inst == InstanceParams(n=100, eps_n=0.1, m_n=100.0)

        p2 = ModelParams(alpha=0.5, lam=1.0, gamma1=2.0, gamma2=1.0)
        inst2 = derive_instance(p2, 10)
        assert inst2 == InstanceParams(n=10, eps_n=0.1, m_n=100.0)

    def test_n_one_is_domain_error(self):
        p = ModelParams(alpha=0.5, lam=1.0, gamma1=1.0, gamma2=0.5)
        with pytest.raises(ValueError):
            derive_instance(p, 1)


class TestMu1:
    def test_examples(self):
        assert mu1(1.0, 2.0) == pytest.approx(0.5, abs=0.0)
        assert mu1(2.0, 1.0) == pytest.approx(2.0, abs=0.0)
        assert mu1(0.5, 1.0) == pytest.approx(GAMMA_1P5, rel=1e-12)

    def test_against_quadrature(self):
        for s in (0.25, 0.5, 1.0, 1.5, 2.0, 2.5):
            for lam in (0.5, 1.0, 3.0):
                assert mu1(s, lam) == pytest.approx(oracle_mu1(s, lam), rel=1e-8)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mu1(0.0, 1.0)
        with pytest.raises(ValueError):
            mu1(1.0, -1.0)

    def test_window_against_quadrature(self):
        for s in (1.0, 2.0):
            for lam, b in ((1.0, 0.5), (2.0, 3.0), (0.3, 10.0)):
                want, _ = integrate.quad(
                    lambda x: x**s * lam * math.exp(-lam * x), 0.0, b, epsabs=0.0, epsrel=1e-12
                )
                assert mu1(s, lam, b) == pytest.approx(want, rel=1e-10), (s, lam, b)

    def test_window_edges(self):
        assert mu1(1.0, 1.0, 0.0) == 0.0
        assert mu1(2.0, 1.0, -1.0) == 0.0
        assert mu1(2.0, 0.5, 2000.0) == mu1(2.0, 0.5)  # lam * b > 745

    def test_window_needs_order_one_or_two(self):
        with pytest.raises(ValueError, match="order 1 or 2"):
            mu1(0.5, 1.0, 10.0)


class TestMu2:
    def test_examples(self):
        assert mu2(1.0, 0.5, 100.0) == pytest.approx(10.0, rel=1e-12)
        assert mu2(1.0, 1.0, math.e) == pytest.approx(1.5819767068693265, rel=1e-12)
        assert mu2(2.0, 0.5, 1.0 + 1e-8) == pytest.approx(1.0, abs=1e-6)

    def test_against_quadrature_grid(self, moment_grid):
        for alpha, m in moment_grid:
            for s in (0.25, 0.5, 1.0, 1.5, 2.0, 2.5):
                assert mu2(s, alpha, m) == pytest.approx(
                    oracle_mu2(s, alpha, m), rel=1e-8
                ), (s, alpha, m)

    def test_continuity_at_s_equals_alpha(self, moment_grid):
        for alpha, m in moment_grid:
            at = mu2(alpha, alpha, m)
            assert abs(mu2(alpha + 1e-6, alpha, m) - at) < 1e-4 * at
            assert abs(mu2(alpha - 1e-6, alpha, m) - at) < 1e-4 * at

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mu2(1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            mu2(-1.0, 0.5, 10.0)

    def test_window_is_clamped_to_the_support(self):
        assert mu2(1.0, 0.5, 100.0, 0.5) == 0.0
        assert mu2(2.0, 0.5, 100.0, 1.0) == 0.0
        assert mu2(1.0, 0.5, 100.0, 1e6) == mu2(1.0, 0.5, 100.0)
        # E[Y 1{Y < 25}] = (25**0.5 - 1) / (1 - 100**-0.5) at alpha = 0.5, m = 100
        assert mu2(1.0, 0.5, 100.0, 25.0) == pytest.approx(4.0 / 0.9, rel=1e-14)
        assert mu2(0.5, 0.5, 100.0, 25.0) == pytest.approx(0.5 * math.log(25.0) / 0.9, rel=1e-14)


class TestMixtureMoments:
    def test_mean_examples(self):
        p = ModelParams(alpha=0.5, lam=1.0, gamma1=1.0, gamma2=0.5)
        inst = InstanceParams(n=100, eps_n=0.1, m_n=100.0)
        assert mean_z(p, inst) == pytest.approx(1.9, rel=1e-12)

        p2 = ModelParams(alpha=0.5, lam=2.0, gamma1=1.0, gamma2=0.5)
        assert mean_z(p2, inst) == pytest.approx(1.45, rel=1e-12)

        pure_light = InstanceParams(n=100, eps_n=0.0, m_n=100.0)
        assert mean_z(p2, pure_light) == pytest.approx(0.5, abs=0.0)

    def test_var_example(self):
        # 0.9 * 2 + 0.1 * 370.0 - 1.9**2, with mu2(2) = (1/3) * 999 / 0.9
        p = ModelParams(alpha=0.5, lam=1.0, gamma1=1.0, gamma2=0.5)
        inst = InstanceParams(n=100, eps_n=0.1, m_n=100.0)
        assert mu2(2.0, 0.5, 100.0) == pytest.approx(370.0, rel=1e-12)
        assert var_z(p, inst) == pytest.approx(35.19, rel=1e-12)

    def test_var_pure_light_limit(self):
        p = ModelParams(alpha=0.5, lam=2.0, gamma1=1.0, gamma2=0.5)
        inst = InstanceParams(n=100, eps_n=0.0, m_n=100.0)
        assert var_z(p, inst) == pytest.approx(0.25, rel=1e-12)

    def test_against_quadrature_grid(self, moment_grid):
        for alpha, m in moment_grid:
            p = ModelParams(alpha=alpha, lam=1.3, gamma1=1.0, gamma2=1.0)
            for eps in (1e-4, 0.05):
                inst = InstanceParams(n=100, eps_n=eps, m_n=m)
                assert mean_z(p, inst) == pytest.approx(
                    oracle_mean_z(1.3, alpha, eps, m), rel=1e-8
                )
                assert var_z(p, inst) == pytest.approx(
                    oracle_var_z(1.3, alpha, eps, m), rel=1e-8
                )

    def test_var_positive_on_grid(self, moment_grid):
        for alpha, m in moment_grid:
            p = ModelParams(alpha=alpha, lam=0.7, gamma1=1.0, gamma2=1.0)
            inst = InstanceParams(n=100, eps_n=0.2, m_n=m)
            assert var_z(p, inst) > 0.0


class TestAsymptotics:
    def test_var_exponent_example(self):
        # alpha=0.5, gamma1=2, gamma2=0.6: exponent (2-alpha)*g1 - g2 = 2.4
        p = ModelParams(alpha=0.5, lam=1.0, gamma1=2.0, gamma2=0.6)
        expected = 1.0 + (0.5 / 1.5) * 10.0 ** (4 * 2.4)
        assert var_z_asymptotic(p, 10**4) == pytest.approx(expected, rel=1e-12)

    def test_mean_vanishing_correction(self):
        # alpha=0.5, gamma1=1, gamma2=2: exponent (1-alpha)*g1 - g2 = -1.5 < 0
        p = ModelParams(alpha=0.5, lam=1.0, gamma1=1.0, gamma2=2.0)
        assert mean_z_asymptotic(p, 10**8) == pytest.approx(mu1(1.0, 1.0), rel=1e-10)

    def test_alpha_one_log_branch(self):
        p = ModelParams(alpha=1.0, lam=1.0, gamma1=2.0, gamma2=0.5)
        n = 1000
        expected = 1.0 + 2.0 * math.log(n) * n**-0.5
        assert mean_z_asymptotic(p, n) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "alpha,gamma1,gamma2",
        [(0.5, 2.0, 0.6), (0.3, 1.0, 0.4), (0.8, 2.0, 1.0), (1.5, 1.0, 0.5)],
    )
    def test_ratios_tend_to_one(self, alpha, gamma1, gamma2):
        """Exact/asymptotic ratios approach 1 monotonically on the last rungs."""
        p = ModelParams(alpha=alpha, lam=1.0, gamma1=gamma1, gamma2=gamma2)
        ladder = [10**k for k in range(3, 9)]
        mean_gaps = []
        var_gaps = []
        for n in ladder:
            inst = derive_instance(p, n)
            mean_gaps.append(abs(mean_z(p, inst) / mean_z_asymptotic(p, n) - 1.0))
            var_gaps.append(abs(var_z(p, inst) / var_z_asymptotic(p, n) - 1.0))
        assert mean_gaps[-1] < 1e-2
        assert var_gaps[-1] < 1e-2
        for seq in (mean_gaps, var_gaps):
            assert seq[-1] <= seq[-2] <= seq[-3]

    def test_var_ratio_converges_at_huge_n(self):
        p = ModelParams(alpha=0.5, lam=1.0, gamma1=2.0, gamma2=0.6)
        inst = derive_instance(p, 10**8)
        ratio = var_z(p, inst) / var_z_asymptotic(p, 10**8)
        assert 0.99 < ratio < 1.01


class TestMonteCarloAgreement:
    def test_mean_and_var_within_four_se(self):
        """Closed forms vs 10**6 direct mixture draws."""
        from mixlim import RngStream, quantile_light, quantile_truncated_pareto

        p = ModelParams(alpha=0.5, lam=1.0, gamma1=1.0, gamma2=0.5)
        inst = InstanceParams(n=100, eps_n=0.1, m_n=100.0)
        rng = RngStream(2024)
        size = 10**6
        u = rng.uniforms(2 * size)
        u_branch, u_value = u[0::2], u[1::2]
        draws = quantile_light(u_value, p.lam)
        heavy = u_branch <= inst.eps_n
        draws[heavy] = quantile_truncated_pareto(u_value[heavy], p.alpha, inst.m_n)

        mean_hat = float(np.mean(draws))
        var_hat = float(np.var(draws, ddof=1))
        se_mean = math.sqrt(var_z(p, inst) / size)
        fourth = float(np.mean((draws - mean_hat) ** 4))
        se_var = math.sqrt((fourth - var_hat**2) / size)
        assert abs(mean_hat - mean_z(p, inst)) < 4.0 * se_mean
        assert abs(var_hat - var_z(p, inst)) < 4.0 * se_var
