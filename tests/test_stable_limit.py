"""Reference-law checks: exponent closed forms, CDF oracles, sampler laws."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.special import erfc
from scipy.stats import levy_stable

import mixlim.stable_limit
from mixlim import (
    RngStream,
    StableLimitSpec,
    cdf,
    char_exponent,
    ecf_distance,
    ks_critical_constant,
    ks_one_sample,
    ks_two_sample,
    sample_stable,
)

ALPHAS = (0.3, 0.5, 0.8, 1.2, 1.5, 1.9)


def quad_exponent(u: float, alpha: float, c: float, compensated: bool) -> complex:
    """Independent quadrature of the characteristic exponent (no shift).

    The [0, 1] piece is integrated in the rescaled variable t = u x so the
    oscillation never multiplies the endpoint singularity; the oscillatory
    [1, inf) piece uses Fourier-weighted quadrature of the Levy density.
    """
    if u == 0.0:
        return 0.0
    if u < 0.0:
        return quad_exponent(-u, alpha, c, compensated).conjugate()
    front = alpha * c * u**alpha
    breaks = [t for t in (1.0, 2.0, math.pi) if t < u] or None
    with warnings.catch_warnings():
        # scipy flags roundoff-limited refinement here; the achieved accuracy
        # is checked against the closed form, which is the point of the test.
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        # cos(t) - 1 + t^2/2 is O(t^4), so the integrand below is smooth at 0;
        # the removed -t^2/2 mass integrates in closed form.
        re1_reg, _ = integrate.quad(
            lambda t: (math.cos(t) - 1.0 + 0.5 * t * t) * t ** (-1.0 - alpha), 0, u,
            epsabs=1e-13, epsrel=1e-11, limit=300, points=breaks)
        re1 = re1_reg - u ** (2.0 - alpha) / (2.0 * (2.0 - alpha))
        if compensated:
            im1, _ = integrate.quad(lambda t: (math.sin(t) - t) * t ** (-1.0 - alpha), 0, u,
                                    epsabs=1e-13, epsrel=1e-11, limit=300, points=breaks)
        else:
            im1, _ = integrate.quad(lambda t: math.sin(t) * t ** (-1.0 - alpha), 0, u,
                                    epsabs=1e-13, epsrel=1e-11, limit=300, points=breaks)
        # Tail pieces after one integration by parts, so the Fourier-weighted
        # quadrature sees an absolutely convergent x^-(2+alpha) integrand.
        tail_sin, _ = integrate.quad(lambda x: x ** (-2.0 - alpha), 1, np.inf,
                                     weight="sin", wvar=u, epsabs=1e-13, limlst=300)
        tail_cos, _ = integrate.quad(lambda x: x ** (-2.0 - alpha), 1, np.inf,
                                     weight="cos", wvar=u, epsabs=1e-13, limlst=300)
    cos_part = -math.sin(u) / u + (1.0 + alpha) / u * tail_sin
    sin_part = math.cos(u) / u - (1.0 + alpha) / u * tail_cos
    re2 = alpha * c * cos_part - c  # subtract int_1^inf dens = c
    return complex(front * re1 + re2, front * im1 + alpha * c * sin_part)


class TestCharExponent:
    def test_zero_at_origin(self):
        for alpha in ALPHAS:
            spec = StableLimitSpec(alpha=alpha)
            assert char_exponent(0.0, spec, True) == 0.0

    def test_conjugate_symmetry(self):
        for alpha in ALPHAS:
            spec = StableLimitSpec(alpha=alpha, shift=0.3)
            for u in (0.5, 1.7, 9.0):
                lhs = char_exponent(-u, spec, True)
                rhs = char_exponent(u, spec, True)
                assert lhs == pytest.approx(rhs.conjugate(), rel=1e-12)

    def test_closed_form_matches_quadrature(self):
        u_grid = [-10.0, -4.0, -1.0, -0.25, 0.25, 1.0, 4.0, 10.0]
        for alpha in ALPHAS:
            spec = StableLimitSpec(alpha=alpha)
            for u in u_grid:
                got = char_exponent(u, spec, True)
                want = quad_exponent(u, alpha, 1.0, True)
                assert abs(got - want) < 1e-6, (alpha, u)
                if alpha < 1.0:
                    got_u = char_exponent(u, spec, False)
                    want_u = quad_exponent(u, alpha, 1.0, False)
                    assert abs(got_u - want_u) < 1e-6, (alpha, u)

    def test_alpha_one_against_independent_quadrature(self):
        spec = StableLimitSpec(alpha=1.0)
        for u in (-3.0, 0.5, 2.0):
            got = char_exponent(u, spec, True)
            want = quad_exponent(u, 1.0, 1.0, True)
            assert abs(got - want) < 1e-6

    def test_laplace_side_value(self):
        # int_0^inf (e^-x - 1) * 0.5 x^-1.5 dx = -sqrt(pi)
        value, _ = integrate.quad(
            lambda x: math.expm1(-x) * 0.5 * x**-1.5, 0.0, np.inf,
            epsabs=1e-13, epsrel=1e-11, limit=400,
        )
        assert value == pytest.approx(-math.sqrt(math.pi), rel=1e-9)
        # analytic continuation of the closed form at u = i (s = 1)
        assert -math.gamma(0.5) == pytest.approx(value, rel=1e-9)

    def test_uncompensated_rejected_above_one(self):
        with pytest.raises(ValueError):
            char_exponent(1.0, StableLimitSpec(alpha=1.2), compensated=False)

    def test_compensation_identity(self):
        """psi_comp - psi_unc = -iu * alpha/(1-alpha) (the window mass)."""
        for alpha in (0.3, 0.5, 0.8):
            spec = StableLimitSpec(alpha=alpha)
            window_mass, _ = integrate.quad(
                lambda x: x * alpha * x ** (-1.0 - alpha), 0.0, 1.0,
                epsabs=1e-13, epsrel=1e-11,
            )
            assert window_mass == pytest.approx(alpha / (1.0 - alpha), rel=1e-10)
            for u in (-2.0, 0.7, 5.0):
                diff = char_exponent(u, spec, True) - char_exponent(u, spec, False)
                assert diff == pytest.approx(-1j * u * window_mass, abs=1e-8)


class TestCdf:
    def test_levy_closed_form(self):
        """alpha = 1/2, tail_const 1 is the Levy law: F(x) = erfc(sqrt(pi)/(2 sqrt(x)))."""
        spec = StableLimitSpec(alpha=0.5)
        for x in (0.5, 1.0, 2.0, 5.0, 1e6, 1e7):
            want = erfc(math.sqrt(math.pi) / (2.0 * math.sqrt(x)))
            assert cdf(x, spec, False) == pytest.approx(want, abs=1e-6)

    def test_support_is_positive_half_line(self):
        spec = StableLimitSpec(alpha=0.5)
        assert cdf(0.0, spec, False) == 0.0
        assert cdf(-3.0, spec, False) == 0.0
        assert cdf(1e-4, spec, False) < 1e-9

    @pytest.mark.parametrize("alpha", [0.2, 0.25, 0.3])
    def test_compensated_near_support_edge(self, alpha):
        """Just right of the edge -alpha/(1-alpha) the compensated CDF converges
        and is the uncompensated CDF at the translated point."""
        spec = StableLimitSpec(alpha=alpha)
        window = alpha / (1.0 - alpha)
        for d in (0.1, 1.0):
            x = -window + d
            value = cdf(x, spec, True)
            assert value == cdf(x + window, spec, False)
            assert 0.0 < value < 1.0

    def test_compensated_levy_is_shifted_by_minus_one(self):
        """At alpha = 1/2 the window mass is 1: F(x) = erfc(sqrt(pi)/(2 sqrt(x + 1)))."""
        spec = StableLimitSpec(alpha=0.5)
        for x in (-0.9, -0.5, 0.0, 1.0, 4.0):
            want = erfc(math.sqrt(math.pi) / (2.0 * math.sqrt(x + 1.0)))
            assert cdf(x, spec, True) == pytest.approx(want, abs=1e-6)
        assert cdf(-1.0, spec, True) == 0.0

    @pytest.mark.parametrize("c, shift", [(1.0, 0.0), (0.7, 0.3), (2.5, -1.0)])
    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.15, 0.5, 0.8, 1.0, 1.2, 1.5, 1.9])
    def test_matches_levy_stable_s1(self, alpha, c, shift):
        """scipy's levy_stable (S1) at 60 quantiles, through Nolan's S1 map:
        sigma**alpha = c Gamma(1-alpha) cos(pi alpha/2) and location shift, less
        c alpha/(1-alpha) if compensated; at alpha = 1, sigma = c pi/2 and location
        c (1 - Euler gamma) + shift.  Points within 0.01 sigma of zeta, where
        levy_stable returns F(zeta), are skipped."""
        for compensated in (False, True) if alpha < 1.0 else (True,):
            spec = StableLimitSpec(alpha=alpha, tail_const=c, shift=shift)
            if alpha == 1.0:
                sigma, loc = c * math.pi / 2.0, c * (1.0 - np.euler_gamma) + shift
                zeta = loc + c * math.log(sigma)
            else:
                sigma_alpha = c * math.gamma(1.0 - alpha) * math.cos(math.pi * alpha / 2.0)
                sigma = sigma_alpha ** (1.0 / alpha)
                loc = zeta = shift - (c * alpha / (1.0 - alpha) if compensated else 0.0)
            draws = sample_stable(RngStream(7), spec, compensated, size=4000)
            xs = np.quantile(draws, (np.arange(60) + 0.5) / 60.0)
            xs = xs[np.abs(xs - zeta) > 0.01 * sigma]
            assert xs.size > 40
            want = levy_stable.cdf(xs, alpha, 1.0, loc=loc, scale=sigma)
            assert np.max(np.abs(cdf(xs, spec, compensated) - want)) < 1e-6

    @pytest.mark.parametrize("alpha, compensated",
                             [(0.5, False), (0.5, True), (1.0, True), (1.5, True)])
    def test_array_call_is_the_scalar_calls(self, alpha, compensated):
        spec = StableLimitSpec(alpha=alpha)
        xs = np.linspace(-3.0, 12.0, 24).reshape(4, 6)
        values = cdf(xs, spec, compensated)
        assert values.shape == xs.shape
        scalars = [cdf(float(x), spec, compensated) for x in xs.ravel()]
        assert all(type(v) is float for v in scalars)
        assert np.array_equal(values.ravel(), scalars)

    def test_no_warning_at_extreme_alphas(self):
        xs = np.concatenate([-np.logspace(3.0, -3.0, 13), [0.0], np.logspace(-3.0, 12.0, 31)])
        cases = ((0.05, False), (0.05, True), (1.0, True), (1.99, True))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for alpha, compensated in cases:
                values = cdf(xs, StableLimitSpec(alpha=alpha), compensated)
                assert np.all((0.0 <= values) & (values <= 1.0))
                assert np.all(np.diff(values) >= -1e-12)

    def test_unmet_error_budget_raises(self, monkeypatch):
        spec = StableLimitSpec(alpha=1.5)
        with pytest.raises(ArithmeticError):
            cdf(np.nan, spec, True)
        monkeypatch.setattr(mixlim.stable_limit, "_CDF_ERROR_BUDGET", 1e-300)
        for x in (0.7, np.array([-1.0, 0.7, 3.0])):
            with pytest.raises(ArithmeticError):
                cdf(x, spec, True)

    def test_monotone(self):
        for alpha, compensated in ((0.5, False), (0.5, True), (1.5, True), (1.0, True)):
            spec = StableLimitSpec(alpha=alpha)
            xs = np.concatenate([np.linspace(-4.0, 8.0, 41), [20.0, 100.0]])
            values = [cdf(float(x), spec, compensated) for x in xs]
            assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_tail_slope(self, alpha):
        """1 - F(x) ~ tail_const * x**-alpha: log-log slope -alpha +- 0.05."""
        spec = StableLimitSpec(alpha=alpha)
        xs = np.logspace(2.0, 4.0, 9)
        tails = np.array([1.0 - cdf(float(x), spec, True) for x in xs])
        assert np.all(tails > 0.0)
        slope = np.polyfit(np.log(xs), np.log(tails), 1)[0]
        assert slope == pytest.approx(-alpha, abs=0.05)
        ratios = tails / xs**-alpha
        assert np.all((0.5 < ratios) & (ratios < 2.0))


class TestSampler:
    def test_kanter_vs_levy_cdf(self):
        spec = StableLimitSpec(alpha=0.5)
        draws = np.sort(sample_stable(RngStream(101), spec, False, size=2000))

        def levy_cdf(x):
            return erfc(math.sqrt(math.pi) / (2.0 * np.sqrt(np.maximum(x, 1e-300))))

        result = ks_one_sample(draws, levy_cdf, level=0.01)
        assert result.statistic < 0.05

    def test_compensated_support_bound(self):
        spec = StableLimitSpec(alpha=0.5)
        draws = sample_stable(RngStream(55), spec, True, size=10**4)
        assert draws.min() > -1.0 - 1e-9

    def test_scalar_mode(self):
        spec = StableLimitSpec(alpha=0.5)
        value = sample_stable(RngStream(1), spec, False)
        assert isinstance(value, float) and value > 0.0

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_stability_property(self, alpha):
        """(K1 + K2) / 2**(1/alpha) has the same law as K1."""
        spec = StableLimitSpec(alpha=alpha)
        rng = RngStream(333)
        k1 = sample_stable(rng, spec, False, size=10**4)
        k2 = sample_stable(rng, spec, False, size=10**4)
        k3 = sample_stable(rng, spec, False, size=10**4)
        combined = (k1 + k2) / 2.0 ** (1.0 / alpha)
        result = ks_two_sample(combined, k3, level=0.01)
        assert result.passed

    def test_two_independent_batches_agree(self):
        for alpha in (0.5, 1.5):
            spec = StableLimitSpec(alpha=alpha)
            a = sample_stable(RngStream(3), spec, True, size=10**4)
            b = sample_stable(RngStream(4), spec, True, size=10**4)
            result = ks_two_sample(a, b, level=0.01)
            assert result.statistic < ks_critical_constant(0.01) * math.sqrt(2.0 / 10**4)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_ecf_matches_exponent(self, alpha):
        spec = StableLimitSpec(alpha=alpha)
        draws = sample_stable(RngStream(17), spec, True, size=10**4)
        u_grid = np.linspace(-2.0, 2.0, 41)
        distance = ecf_distance(
            draws, lambda u: char_exponent(u, spec, True), u_grid
        )
        assert distance < 0.06

    def test_uncompensated_ecf(self):
        for alpha in (0.3, 0.5, 0.8):
            spec = StableLimitSpec(alpha=alpha)
            draws = sample_stable(RngStream(23), spec, False, size=10**4)
            u_grid = np.linspace(-2.0, 2.0, 41)
            distance = ecf_distance(
                draws, lambda u: char_exponent(u, spec, False), u_grid
            )
            assert distance < 0.06

    def test_cms_laplace_transform(self):
        """E exp(-s X) for the spectrally positive law, small s."""
        alpha = 1.5
        spec = StableLimitSpec(alpha=alpha, shift=alpha / (1.0 - alpha))
        draws = sample_stable(RngStream(71), spec, True, size=10**5)
        for s in (0.05, 0.2):
            # continuation of the exponent to u = is
            analytic = math.exp(
                -math.gamma(1.0 - alpha) * s**alpha
                + s * (alpha / (1.0 - alpha) - spec.shift)
            )
            empirical = float(np.mean(np.exp(-s * draws)))
            se = float(np.std(np.exp(-s * draws))) / math.sqrt(draws.size)
            assert abs(empirical - analytic) < 5.0 * se

    def test_alpha_one_inversion_consistency(self):
        spec = StableLimitSpec(alpha=1.0)
        draws = np.sort(sample_stable(RngStream(41), spec, True, size=1000))
        result = ks_one_sample(draws, lambda xs: np.array([cdf(float(x), spec, True) for x in xs]),
                               level=0.01)
        assert result.passed


class TestAlphaOne:
    """The exact alpha = 1 law: closed-form exponent and CMS sampler."""

    def test_closed_form_matches_quadrature(self):
        for c in (0.7, 1.0, 2.5):
            spec = StableLimitSpec(alpha=1.0, tail_const=c)
            for mag in (1e-3, 0.25, 1.0, 4.0, 10.0):
                for u in (-mag, mag):
                    got = char_exponent(u, spec, True)
                    want = quad_exponent(u, 1.0, c, True)
                    assert abs(got - want) < 1e-6, (c, u)

    def test_ecf_matches_exponent(self):
        spec = StableLimitSpec(alpha=1.0, tail_const=0.7, shift=0.3)
        draws = sample_stable(RngStream(29), spec, True, size=10**5)
        u_grid = np.linspace(-2.0, 2.0, 41)
        distance = ecf_distance(draws, lambda u: char_exponent(u, spec, True), u_grid)
        assert distance < 0.06

    def test_draws_finite_and_two_uniforms_each(self):
        spec = StableLimitSpec(alpha=1.0)
        rng = RngStream(5)
        draws = sample_stable(rng, spec, True, size=10**6)
        assert np.all(np.isfinite(draws))
        assert rng.position == 2 * 10**6

    def test_right_tail_constant(self):
        """x P(X > x) -> tail_const, also far beyond the 1 - 1e-4 quantile."""
        c = 1.0
        spec = StableLimitSpec(alpha=1.0, tail_const=c)
        draws = sample_stable(RngStream(13), spec, True, size=10**6)
        for x in (50.0, 100.0, 200.0):
            tail = np.mean(draws > x)
            want = 1.0 - cdf(x, spec, True)
            assert abs(tail - want) < 5.0 * math.sqrt(want / draws.size), x
            # the O(ln(x)/x) correction is still 8% at x = 50
            assert x * tail == pytest.approx(c, rel=0.15), x
        # about 50 draws expected beyond 2e4; a table stopping at the
        # 1 - 1e-4 quantile (near 1e4) would give none
        assert 25 < np.count_nonzero(draws > 2e4 * c) < 100
