"""Shared quadrature oracles for the test suite.

These integrate the defining densities directly (with a log substitution for
the heavy component so huge truncation levels stay well conditioned) and are
deliberately independent of the closed forms implemented in the package.
"""

import math

import numpy as np
import pytest
from scipy import integrate


def oracle_mu1(s: float, lam: float) -> float:
    """Quadrature of the s-th moment of Exponential(lam)."""
    value, _ = integrate.quad(
        lambda x: x**s * lam * math.exp(-lam * x), 0.0, np.inf,
        epsabs=0.0, epsrel=1e-11, limit=400,
    )
    return value


def oracle_mu2(s: float, alpha: float, m: float) -> float:
    """Quadrature of the s-th moment of the truncated Pareto on [1, m].

    Integrates alpha * e^{(s - alpha) t} over t = ln x in [0, ln m], then
    divides by the truncated mass, itself integrated numerically.
    """
    log_m = math.log(m)
    num, _ = integrate.quad(
        lambda t: alpha * math.exp((s - alpha) * t), 0.0, log_m,
        epsabs=0.0, epsrel=1e-11, limit=400,
    )
    mass, _ = integrate.quad(
        lambda t: alpha * math.exp(-alpha * t), 0.0, log_m,
        epsabs=0.0, epsrel=1e-11, limit=400,
    )
    return num / mass


def oracle_mean_z(lam: float, alpha: float, eps: float, m: float) -> float:
    return (1.0 - eps) * oracle_mu1(1.0, lam) + eps * oracle_mu2(1.0, alpha, m)


def oracle_var_z(lam: float, alpha: float, eps: float, m: float) -> float:
    second = (1.0 - eps) * oracle_mu1(2.0, lam) + eps * oracle_mu2(2.0, alpha, m)
    return second - oracle_mean_z(lam, alpha, eps, m) ** 2


def oracle_truncated_light_moment(s: float, lam: float, b: float) -> float:
    """Quadrature of E[X^s 1{X < b}] for Exponential(lam).

    The interval is capped at 200/lam: the integrand mass beyond that point
    is below e^-190, so the cap keeps the quadrature nodes where the density
    lives without changing the value at double precision.
    """
    if b <= 0.0:
        return 0.0
    value, _ = integrate.quad(
        lambda x: x**s * lam * math.exp(-lam * x), 0.0, min(b, 200.0 / lam),
        epsabs=0.0, epsrel=1e-11, limit=400,
    )
    return value


def oracle_truncated_heavy_moment(s: float, alpha: float, m: float, b: float) -> float:
    """Quadrature of E[Y^s 1{Y < b}] for the truncated Pareto on [1, m]."""
    top = min(b, m)
    if top <= 1.0:
        return 0.0
    num, _ = integrate.quad(
        lambda t: alpha * math.exp((s - alpha) * t), 0.0, math.log(top),
        epsabs=0.0, epsrel=1e-11, limit=400,
    )
    mass, _ = integrate.quad(
        lambda t: alpha * math.exp(-alpha * t), 0.0, math.log(m),
        epsabs=0.0, epsrel=1e-11, limit=400,
    )
    return num / mass


def oracle_centering(lam, alpha, eps, m, n, beta) -> float:
    light = oracle_truncated_light_moment(1.0, lam, beta)
    heavy = oracle_truncated_heavy_moment(1.0, alpha, m, beta)
    return n / beta * ((1.0 - eps) * light + eps * heavy)


def oracle_abs_central_moment(lam, alpha, eps, m, order) -> float:
    """Quadrature of E|Z - EZ|**order over the mixture density.

    Each component is split at the center c, where |x - c| has its kink; the
    light part runs to infinity and the heavy part in t = ln x on [0, ln m].
    """
    center = oracle_mean_z(lam, alpha, eps, m)
    split = min(center, 700.0 / lam)
    light = sum(
        integrate.quad(lambda x: abs(x - center) ** order * lam * math.exp(-lam * x),
                       a, b, epsabs=0.0, epsrel=1e-11, limit=400)[0]
        for a, b in ((0.0, split), (split, np.inf))
    )
    if eps == 0.0:
        return light
    log_m = math.log(m)
    mass, _ = integrate.quad(lambda t: alpha * math.exp(-alpha * t), 0.0, log_m,
                             epsabs=0.0, epsrel=1e-11, limit=400)
    cuts = [0.0, math.log(center), log_m] if 1.0 < center < m else [0.0, log_m]
    heavy = sum(
        integrate.quad(lambda t: abs(math.exp(t) - center) ** order * alpha * math.exp(-alpha * t),
                       a, b, epsabs=0.0, epsrel=1e-11, limit=400)[0]
        for a, b in zip(cuts, cuts[1:])
    )
    return (1.0 - eps) * light + eps * heavy / mass


@pytest.fixture(scope="session")
def moment_grid():
    """(alpha, m) grid used by the moment-oracle comparisons."""
    alphas = [0.3, 0.5, 0.8, 1.0, 1.2, 1.5, 1.9]
    ms = [2.0, 1e2, 1e6]
    return [(a, m) for a in alphas for m in ms]
