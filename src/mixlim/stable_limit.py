"""One-sided alpha-stable reference laws: exponent, CDF, and direct samplers.

A reference law is the infinitely divisible distribution with no Gaussian
part and Levy tail ``nu(x, inf) = tail_const * x**-alpha`` on (0, inf)
(density ``alpha * tail_const * x**-alpha-1``), plus a deterministic shift.
Two variants are evaluated:

* uncompensated (alpha < 1 only): exponent integral of (e^{iux} - 1);
  the law is supported on [shift, inf).
* compensated: exponent integral of (e^{iux} - 1 - iux 1{x <= 1}); for
  alpha < 1 this equals the uncompensated law translated left by
  tail_const * alpha / (1 - alpha), the mass of the compensation window.

The exponent is in closed form at every alpha: for alpha != 1 via the
principal branch of Gamma(-alpha) * (-iu)**alpha, and at alpha = 1 (where
only the compensated law exists) via the logarithmic form of Sato, "Levy
Processes and Infinitely Divisible Distributions", Lemma 14.11.  In Nolan's
S1 parametrization the alpha = 1 law is S(1, beta=1, sigma=tail_const*pi/2,
mu=tail_const*(1 - Euler gamma) + shift).  All samplers are exact.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = ["StableLimitSpec", "char_exponent", "cdf", "sample_stable"]

# Stop the inversion integral where |exp(Re psi(u))| drops below this.
_TRUNCATION_TOL = 1e-10
# Absolute error budget for one CDF evaluation (quadrature + truncation tail).
_CDF_ERROR_BUDGET = 1e-6


@dataclass(frozen=True)
class StableLimitSpec:
    """Reference law parameters: tail index, Levy tail constant, location shift."""

    alpha: float
    tail_const: float = 1.0
    shift: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must be in (0, 2), got {self.alpha}")
        if not self.tail_const > 0.0:
            raise ValueError(f"tail_const must be positive, got {self.tail_const}")


def _check_compensation(spec: StableLimitSpec, compensated: bool) -> None:
    if not compensated and spec.alpha >= 1.0:
        raise ValueError(
            "uncompensated exponent diverges for alpha >= 1; use compensated=True"
        )


def _minus_iu_pow(u: np.ndarray, alpha: float) -> np.ndarray:
    """(-i u)**alpha on the principal branch, for real u."""
    mag = np.abs(u) ** alpha
    phase = np.exp(-1j * np.sign(u) * alpha * (np.pi / 2.0))
    return mag * phase


def char_exponent(u, spec: StableLimitSpec, compensated: bool):
    """Characteristic exponent psi(u); the law's CF is exp(psi(u)).

    compensated=True:
        psi(u) = int_0^inf (e^{iux} - 1 - iux 1{x<=1}) nu(dx) + iu*shift
    compensated=False (alpha < 1 only):
        psi(u) = int_0^inf (e^{iux} - 1) nu(dx) + iu*shift

    For alpha != 1 the closed form is
        psi(u) = -tail_const * Gamma(1-alpha) * (-iu)**alpha
                 [- iu * tail_const * alpha/(1-alpha) if compensated]
                 + iu * shift;
    for alpha = 1 (compensated only) it is
        psi(u) = tail_const * (-(pi/2)|u| - iu ln|u| + iu (1 - Euler gamma))
                 + iu * shift.
    """
    _check_compensation(spec, compensated)
    alpha = spec.alpha
    c = spec.tail_const
    u_arr = np.asarray(u, dtype=np.float64)
    scalar = u_arr.ndim == 0
    u_flat = np.atleast_1d(u_arr)

    if alpha == 1.0:
        log_abs = np.log(np.abs(u_flat), out=np.zeros_like(u_flat), where=u_flat != 0.0)
        psi = c * (-(np.pi / 2.0) * np.abs(u_flat) + 1j * u_flat * (1.0 - np.euler_gamma - log_abs))
    else:
        from scipy.special import gamma

        psi = -c * gamma(1.0 - alpha) * _minus_iu_pow(u_flat, alpha)
        if compensated:
            psi = psi - 1j * u_flat * (c * alpha / (1.0 - alpha))
    psi = psi + 1j * u_flat * spec.shift
    return complex(psi[0]) if scalar else psi.reshape(u_arr.shape)


def _bulk_decay_const(spec: StableLimitSpec) -> float:
    """A > 0 with Re psi(u) = -A |u|**alpha."""
    alpha = spec.alpha
    if alpha == 1.0:
        return spec.tail_const * math.pi / 2.0
    from scipy.special import gamma

    return spec.tail_const * gamma(1.0 - alpha) * math.cos(alpha * math.pi / 2.0)


def support_lower_bound(spec: StableLimitSpec, compensated: bool) -> float:
    """Left endpoint of the support; -inf when alpha >= 1."""
    if spec.alpha >= 1.0:
        return -math.inf
    bound = spec.shift
    if compensated:
        bound -= spec.tail_const * spec.alpha / (1.0 - spec.alpha)
    return bound


def cdf(x, spec: StableLimitSpec, compensated: bool):
    """Distribution function by Gil-Pelaez inversion of exp(char_exponent).

    F(x) = 1/2 - (1/pi) int_0^umax Im[e^{-iux} phi(u)] / u du, truncated where
    |phi| < 1e-10; the discarded tail is bounded by 1e-10/(alpha ln(1e10)) and
    is inside the 1e-6 error budget.  Raises ArithmeticError when the
    quadrature error estimate exceeds the budget.
    """
    _check_compensation(spec, compensated)
    x_arr = np.asarray(x, dtype=np.float64)
    if x_arr.ndim > 0:
        return np.array([cdf(float(v), spec, compensated) for v in x_arr])

    xv = float(x_arr)
    lower = support_lower_bound(spec, compensated)
    if xv <= lower:
        return 0.0

    u_max = (-math.log(_TRUNCATION_TOL) / _bulk_decay_const(spec)) ** (1.0 / spec.alpha)
    u_split = min(1.0, 1.0 / max(1.0, abs(xv)))

    def phi_scalar(u):
        return complex(np.exp(char_exponent(u, spec, compensated)))

    def integrand_small(u):
        return (phi_scalar(u) * complex(math.cos(u * xv), -math.sin(u * xv))).imag / u

    def im_phi_over_u(u):
        return phi_scalar(u).imag / u

    def re_phi_over_u(u):
        return phi_scalar(u).real / u

    from scipy import integrate

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        i_small, err_small = integrate.quad(
            integrand_small, 0.0, u_split, epsabs=1e-10, epsrel=1e-9, limit=400,
        )
        i_cos, err_cos = integrate.quad(
            im_phi_over_u, u_split, u_max,
            weight="cos", wvar=xv, epsabs=1e-10, limit=800,
        )
        i_sin, err_sin = integrate.quad(
            re_phi_over_u, u_split, u_max,
            weight="sin", wvar=xv, epsabs=1e-10, limit=800,
        )
    trunc_err = _TRUNCATION_TOL / (spec.alpha * -math.log(_TRUNCATION_TOL))
    total_err = (err_small + err_cos + err_sin) / math.pi + trunc_err
    if not math.isfinite(total_err) or total_err > _CDF_ERROR_BUDGET:
        raise ArithmeticError(
            f"CDF inversion did not converge at x={xv} "
            f"(alpha={spec.alpha}, error estimate {total_err:.3e})"
        )
    value = 0.5 - (i_small + i_cos - i_sin) / math.pi
    return min(1.0, max(0.0, value))


def _kanter_standard(rng, alpha: float, size: int) -> np.ndarray:
    """Kanter variates K with E exp(-s K) = exp(-s**alpha), alpha in (0, 1).

    Consumes two uniforms per draw (angle, exponential).
    """
    u = rng.uniforms(2 * size)
    theta = np.pi * u[0::2]
    w = -np.log(u[1::2])
    a = (
        np.sin(alpha * theta) ** alpha
        * np.sin((1.0 - alpha) * theta) ** (1.0 - alpha)
        / np.sin(theta)
    ) ** (1.0 / (1.0 - alpha))
    return (a / w) ** ((1.0 - alpha) / alpha)


def _cms_spectrally_positive(rng, alpha: float, size: int) -> np.ndarray:
    """Chambers-Mallows-Stuck variates, alpha in (1, 2), skewness +1, unit scale.

    Output follows S_alpha(sigma=1, beta=1, mu=0) with characteristic function
    exp(-|u|**alpha (1 - i sign(u) tan(pi alpha/2))); two uniforms per draw.
    """
    u = rng.uniforms(2 * size)
    v = np.pi * (u[0::2] - 0.5)
    w = -np.log(u[1::2])
    tan_half = math.tan(math.pi * alpha / 2.0)
    b = math.atan(tan_half) / alpha
    s = (1.0 + tan_half * tan_half) ** (1.0 / (2.0 * alpha))
    return (
        s
        * np.sin(alpha * (v + b))
        / np.cos(v) ** (1.0 / alpha)
        * (np.cos(v - alpha * (v + b)) / w) ** ((1.0 - alpha) / alpha)
    )


def _cms_alpha_one(rng, size: int) -> np.ndarray:
    """Chambers-Mallows-Stuck variates, alpha = 1, skewness +1, unit scale.

    Weron's formula X = (2/pi) [(pi/2 + V) tan V - ln((pi/2) W cos V / (pi/2
    + V))] gives S_1(sigma=1, beta=1, mu=0) with characteristic function
    exp(-|u| - i (2/pi) u ln|u|).  With V = pi (U - 1/2), pi/2 + V = pi U and
    cos V = sin(pi U) are formed directly, so no draw cancels to zero; two
    uniforms per draw.
    """
    u = rng.uniforms(2 * size)
    a = np.pi * u[0::2]
    w = -np.log(u[1::2])
    cos_v = np.sin(a)
    tan_v = -np.cos(a) / cos_v
    return (2.0 / np.pi) * (a * tan_v - np.log((np.pi / 2.0) * w * cos_v / a))


def sample_stable(rng, spec: StableLimitSpec, compensated: bool, size: int | None = None):
    """Draw from the reference law using the stream ``rng``.

    alpha < 1  exact Kanter construction scaled by (Gamma(1-alpha) *
               tail_const)**(1/alpha), so the Laplace transform of the
               unshifted, uncompensated draw is exp(-Gamma(1-alpha) *
               tail_const * s**alpha);
    alpha > 1  Chambers-Mallows-Stuck, scaled by (tail_const * Gamma(1-alpha)
               * cos(pi alpha / 2))**(1/alpha) and recentred by tail_const *
               alpha/(alpha-1), which matches exp(char_exponent) exactly;
    alpha = 1  Chambers-Mallows-Stuck in Weron's form for beta = 1, giving
               S(1, 1, sigma, mu) with sigma = tail_const * pi/2 and mu =
               tail_const * (1 - Euler gamma) + shift, which matches
               exp(char_exponent) exactly (compensated only).

    Every branch consumes two uniforms per draw.  For alpha != 1,
    compensation subtracts tail_const * alpha/(1-alpha) (adds, for alpha > 1).
    Returns a scalar when ``size`` is None, else an array of length ``size``.
    """
    _check_compensation(spec, compensated)
    m = 1 if size is None else int(size)
    if m < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    alpha = spec.alpha
    c = spec.tail_const

    if alpha < 1.0:
        from scipy.special import gamma

        scale = (gamma(1.0 - alpha) * c) ** (1.0 / alpha)
        x = scale * _kanter_standard(rng, alpha, m)
    elif alpha > 1.0:
        scale = _bulk_decay_const(spec) ** (1.0 / alpha)
        x = scale * _cms_spectrally_positive(rng, alpha, m)
    else:
        # sigma X + (2/pi) sigma ln(sigma) + mu: Weron's rescaling at beta = 1
        sigma = _bulk_decay_const(spec)
        x = sigma * _cms_alpha_one(rng, m) + c * (math.log(sigma) + 1.0 - np.euler_gamma)

    x = x + spec.shift
    if compensated and alpha != 1.0:
        x = x - c * alpha / (1.0 - alpha)
    return float(x[0]) if size is None else x
