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

Each law is Nolan's S1 law S(alpha, beta=1, sigma, mu).  The exponent is in
closed form at every alpha (at alpha = 1, where only the compensated law
exists, by Sato, "Levy Processes and Infinitely Divisible Distributions",
Lemma 14.11); the CDF is Nolan's integral over a finite angle interval
(Stochastic Models 13, 1997); the samplers are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["StableLimitSpec", "char_exponent", "cdf", "sample_stable"]

_CDF_ERROR_BUDGET = 1e-6  # absolute error budget for one CDF value
# Tanh-sinh rule on [0, 1], step 1/32 to |t| = 3: per node the shares of the
# interval below and above it (no cancellation near an end) and the weight.
_TS_T = np.arange(-96, 97) / 32.0
_TS_BELOW, _TS_ABOVE = 1.0 / (1.0 + np.exp(np.outer([-np.pi, np.pi], np.sinh(_TS_T))))
_TS_WEIGHT = np.pi / 32.0 * np.cosh(_TS_T) * _TS_BELOW * _TS_ABOVE
_CDF_BLOCK = 1024  # CDF points per block, which bounds the (points x nodes) arrays


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


def _s1_scale(spec: StableLimitSpec) -> float:
    """Nolan's S1 scale sigma > 0, with Re psi(u) = -(sigma |u|)**alpha."""
    alpha = spec.alpha
    if alpha == 1.0:
        return spec.tail_const * math.pi / 2.0
    from scipy.special import gamma

    return (spec.tail_const * gamma(1.0 - alpha) * math.cos(alpha * math.pi / 2.0)) ** (1.0 / alpha)


def _log_v(phi, psi, alpha: float, reflected: bool):
    """log V of Nolan's integral (beta = -1 if reflected) at angles phi, psi from
    its interval's ends; each sine takes the distance from its nearer zero."""
    if alpha == 1.0:
        cos_t = np.sin(np.minimum(phi, psi))
        return np.log((2.0 / np.pi) * phi / cos_t) + phi * np.cos(psi) / cos_t
    if alpha < 1.0:
        a_cos, a_sin, a_tilt = np.minimum(phi, psi), alpha * phi, (1.0 - alpha) * phi
    elif reflected:
        a_cos, a_sin, a_tilt = psi, alpha * np.minimum(phi, psi), (alpha - 1.0) * psi
    else:
        a_cos, a_sin, a_tilt = psi, alpha * phi, np.pi / alpha - (alpha - 1.0) * phi
    log_cos = math.log(abs(math.cos(alpha * math.pi / 2.0))) + np.log(np.sin(a_cos))
    return (log_cos - alpha * np.log(np.sin(a_sin))) / (alpha - 1.0) + np.log(np.sin(a_tilt))


def _nolan_integral(z, alpha: float, reflected: bool):
    """(1/pi) int exp(-exp(log h + log V)) over Nolan's interval (h or V alone may
    overflow), cut where h V = 1 as log V is monotone; with its rule-halving error."""
    log_h = -np.pi / 2.0 * z if alpha == 1.0 else alpha / (alpha - 1.0) * np.log(np.abs(z))
    span = np.pi / alpha if reflected else np.pi - np.pi / alpha if alpha > 1.0 else np.pi
    lo, hi = np.zeros_like(log_h), np.ones_like(log_h)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        high = log_h + _log_v(span * mid, span * (1.0 - mid), alpha, reflected) > 0.0
        lo, hi = np.where(high == (alpha <= 1.0), (lo, mid), (mid, hi))
    cut = (0.5 * (lo + hi))[:, None]
    full = half = 0.0
    for start, width in ((0.0, cut), (cut, 1.0 - cut)):
        below, above = start + width * _TS_BELOW, 1.0 - start - width + width * _TS_ABOVE
        log_hv = log_h[:, None] + _log_v(span * below, span * above, alpha, reflected)
        g = width * np.exp(-np.exp(np.minimum(log_hv, 700.0)))  # exp(-exp(700)) is already 0
        full = full + (g * _TS_WEIGHT).sum(axis=1)
        half = half + (g[:, ::2] * (2.0 * _TS_WEIGHT[::2])).sum(axis=1)
    return span / np.pi * full, span / np.pi * np.abs(full - half)


def cdf(x, spec: StableLimitSpec, compensated: bool):
    """Distribution function by Nolan's integral, c0 +- (1/pi) int exp(-h V) dtheta.

    z = (x - mu)/sigma in S1, h = |z|**(alpha/(alpha-1)) (exp(-pi z/2) at alpha
    = 1), and Nolan's reflection for alpha > 1, z < 0; all x share one tanh-sinh
    node set.  ArithmeticError when an error estimate exceeds 1e-6.  At alpha < 1
    compensated is the uncompensated law at x + tail_const * alpha/(1 - alpha).
    A scalar x gives a float, an array an array of its shape."""
    _check_compensation(spec, compensated)
    alpha, c = spec.alpha, spec.tail_const
    window = c * alpha / (1.0 - alpha) if compensated and alpha < 1.0 else 0.0
    sigma = _s1_scale(spec)
    mu = spec.shift + (c * (math.log(sigma) + 1.0 - np.euler_gamma) if alpha == 1.0
                       else c * alpha / (alpha - 1.0) if alpha > 1.0 else 0.0)
    z = np.atleast_1d((np.asarray(x, dtype=np.float64) + window - mu) / sigma).ravel()
    value, error = (alpha > 1.0) * np.where(z == 0.0, 1.0 / alpha, z > 0.0), np.zeros_like(z)
    for part, reflected in (~(z <= 0.0) | (alpha == 1.0), False), ((z < 0.0) & (alpha > 1.0), True):
        ids = np.flatnonzero(part)
        for idx in (ids[k:k + _CDF_BLOCK] for k in range(0, ids.size, _CDF_BLOCK)):
            integral, error[idx] = _nolan_integral(z[idx], alpha, reflected)
            value[idx] += -integral if alpha > 1.0 and not reflected else integral
    if not error.max(initial=0.0) <= _CDF_ERROR_BUDGET:
        raise ArithmeticError(f"CDF error {error.max():.1e} at x={np.ravel(x)[error.argmax()]}")
    return float(value[0]) if np.ndim(x) == 0 else value.reshape(np.shape(x))


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
    alpha > 1  Chambers-Mallows-Stuck, scaled by the S1 scale sigma and
               recentred by tail_const * alpha/(alpha-1), which matches
               exp(char_exponent) exactly;
    alpha = 1  Chambers-Mallows-Stuck in Weron's form for beta = 1, giving
               S(1, 1, sigma, mu) with mu = tail_const * (1 - Euler gamma) +
               shift, which matches exp(char_exponent) exactly (compensated only).

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
        scale = _s1_scale(spec)
        x = scale * _cms_spectrally_positive(rng, alpha, m)
    else:
        # sigma X + (2/pi) sigma ln(sigma) + mu: Weron's rescaling at beta = 1
        sigma = _s1_scale(spec)
        x = sigma * _cms_alpha_one(rng, m) + c * (math.log(sigma) + 1.0 - np.euler_gamma)

    x = x + spec.shift
    if compensated and alpha != 1.0:
        x = x - c * alpha / (1.0 - alpha)
    return float(x[0]) if size is None else x
