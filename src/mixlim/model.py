"""Mixture model parameters and exact/asymptotic moment formulas.

The model is a two-component mixture: with probability ``1 - eps_n`` a draw
comes from Exponential(lambda), with probability ``eps_n`` from a Pareto(alpha)
law on [1, inf) truncated at level ``m_n``.  Both the mixing probability and
the truncation level are tied to the row size ``n`` of a triangular array via

    eps_n = n ** -gamma2,        m_n = n ** gamma1.

This module is the one home of the component laws' closed forms: the partial
moments E[X^s 1{X < b}] of each component (``mu1``, ``mu2``), their quantiles
(``quantile_light``, ``quantile_truncated_pareto``), the truncated Pareto's
normaliser 1 - m**-alpha, and the mixture's partial moments built from them.
All are exact; the ``*_asymptotic`` variants are the leading-order forms used
as diagnostics at large ``n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma_fn

__all__ = [
    "ModelParams",
    "InstanceParams",
    "derive_instance",
    "mu1",
    "mu2",
    "quantile_light",
    "quantile_truncated_pareto",
    "mean_z",
    "var_z",
    "mean_z_asymptotic",
    "var_z_asymptotic",
]


@dataclass(frozen=True)
class ModelParams:
    """The quadruple (alpha, lam, gamma1, gamma2) defining the asymptotic family.

    alpha   heavy-tail index, in (0, 2)
    lam     rate of the exponential (light) component, > 0
    gamma1  truncation exponent, > 0
    gamma2  mixing exponent, > 0
    """

    alpha: float
    lam: float
    gamma1: float
    gamma2: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must be in (0, 2), got {self.alpha}")
        if not self.lam > 0.0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if not self.gamma1 > 0.0:
            raise ValueError(f"gamma1 must be positive, got {self.gamma1}")
        if not self.gamma2 > 0.0:
            raise ValueError(f"gamma2 must be positive, got {self.gamma2}")


@dataclass(frozen=True)
class InstanceParams:
    """Concrete row parameters (n, eps_n, m_n) for one row of the array.

    ``eps_n = 0`` is accepted so tests can force a pure light-tail row; the
    derivation from ModelParams always yields eps_n in (0, 1).
    """

    n: int
    eps_n: float
    m_n: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")
        if not 0.0 <= self.eps_n < 1.0:
            raise ValueError(f"eps_n must lie in [0, 1), got {self.eps_n}")
        if not self.m_n > 1.0:
            raise ValueError(f"m_n must exceed 1, got {self.m_n}")


def derive_instance(params: ModelParams, n: int) -> InstanceParams:
    """Row parameters (n, n**-gamma2, n**gamma1) for row size ``n`` >= 2.

    n = 1 is rejected: it would give eps = 1 (no light component) and
    m = 1 (degenerate heavy support).
    """
    if n < 2:
        raise ValueError(f"row size n must be >= 2, got {n}")
    return InstanceParams(n=n, eps_n=float(n) ** -params.gamma2, m_n=float(n) ** params.gamma1)


def mu1(s: float, lam: float, b: float = math.inf) -> float:
    """Partial moment E[X^s 1{X < b}] of X ~ Exponential(lam), for s > 0.

    With b = inf (the default) this is the raw moment Gamma(s + 1) / lam**s.
    A finite b has a closed form for s in {1, 2} only (any other s raises
    ValueError); it gives 0 for b <= 0 and the raw moment once lam b > 745,
    where e^{-lam b} underflows.
    """
    if not s > 0.0:
        raise ValueError(f"moment order s must be positive, got {s}")
    if not lam > 0.0:
        raise ValueError(f"lam must be positive, got {lam}")
    if b < math.inf and s not in (1.0, 2.0):
        raise ValueError(f"a finite window b needs moment order 1 or 2, got {s}")
    lb = lam * b
    if lb > 745.0:
        return float(_gamma_fn(s + 1.0)) / lam**s
    if b <= 0.0:
        return 0.0
    tail = math.exp(-lb)
    if s == 1.0:
        return (1.0 - tail) / lam - b * tail
    return (2.0 / lam**2) * (1.0 - tail * (1.0 + lb + 0.5 * lb * lb))


def _pareto_mass(alpha: float, m: float) -> float:
    """1 - m**-alpha: the Pareto(alpha) mass of [1, m], which normalises its truncation."""
    return -math.expm1(-alpha * math.log(m))


def _light_quantile(u: np.ndarray, lam: float, out: np.ndarray) -> np.ndarray:
    """-log1p(-u) / lam into ``out``, which may be ``u`` itself; unvalidated.

    The division is skipped at lam = 1, where it is exact.
    """
    np.negative(u, out=out)
    np.log1p(out, out=out)
    np.negative(out, out=out)
    if lam != 1.0:
        out /= lam
    return out


def quantile_light(u, lam: float):
    """Exponential(lam) quantile: -log(1 - u) / lam, for u in [0, 1)."""
    if not lam > 0.0:
        raise ValueError(f"lam must be positive, got {lam}")
    u_arr = np.asarray(u, dtype=np.float64)
    if np.any(u_arr < 0.0) or np.any(u_arr >= 1.0):
        raise ValueError("quantile_light requires u in [0, 1)")
    x = _light_quantile(u_arr, lam, np.empty(u_arr.shape))
    return float(x) if np.isscalar(u) or u_arr.ndim == 0 else x


def quantile_truncated_pareto(u, alpha: float, m: float):
    """Quantile of Pareto(alpha) on [1, inf) truncated at m: u in [0, 1] -> [1, m].

    Inverts F(x) = (1 - x**-alpha) / (1 - m**-alpha):
    x = (1 - u * (1 - m**-alpha)) ** (-1/alpha).
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must be in (0, 2), got {alpha}")
    if not m > 1.0:
        raise ValueError(f"truncation level m must exceed 1, got {m}")
    u_arr = np.asarray(u, dtype=np.float64)
    if np.any(u_arr < 0.0) or np.any(u_arr > 1.0):
        raise ValueError("quantile_truncated_pareto requires u in [0, 1]")
    mass = _pareto_mass(alpha, m)
    x = np.power(1.0 - u_arr * mass, -1.0 / alpha)
    # cancellation in 1 - u*mass can overshoot the endpoints by ~1e-11
    # relative for u near 1 and large m; the support is exactly [1, m]
    x = np.clip(x, 1.0, m)
    return float(x) if np.isscalar(u) or u_arr.ndim == 0 else x


def mu2(s: float, alpha: float, m: float, b: float = math.inf) -> float:
    """Partial moment E[Y^s 1{Y < b}] of Y ~ Pareto(alpha) on [1, inf) truncated at m > 1.

    b is clamped to [1, m], so b = inf (the default) gives the raw moment.
    Exact value, with v = min(max(b, 1), m) and the normaliser 1 - m**-alpha:

        s != alpha:  (alpha / (s - alpha)) * (v**(s-alpha) - 1) / (1 - m**-alpha)
        s == alpha:  alpha * ln(v) / (1 - m**-alpha)

    Uses expm1 throughout so the two branches join continuously as s -> alpha
    and the m -> 1+ limit stays accurate.
    """
    if not s > 0.0:
        raise ValueError(f"moment order s must be positive, got {s}")
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must be in (0, 2), got {alpha}")
    if not m > 1.0:
        raise ValueError(f"truncation level m must exceed 1, got {m}")
    v = min(max(b, 1.0), m)
    if v <= 1.0:
        return 0.0
    log_v = math.log(v)
    if s == alpha:
        num = alpha * log_v
    else:
        num = alpha * math.expm1((s - alpha) * log_v) / (s - alpha)
    return num / _pareto_mass(alpha, m)


def _mixture_moment(
    s: float, params: ModelParams, inst: InstanceParams, b: float = math.inf
) -> float:
    """Partial moment E[Z^s 1{Z < b}] = (1 - eps) mu1(s, lam, b) + eps mu2(s, alpha, m, b).

    At eps = 0 the heavy term is exactly 0, so the sum is the light moment to the bit.
    """
    light = mu1(s, params.lam, b)
    return (1.0 - inst.eps_n) * light + inst.eps_n * mu2(s, params.alpha, inst.m_n, b)


def mean_z(params: ModelParams, inst: InstanceParams) -> float:
    """Exact mixture mean (1 - eps) * mu1(1) + eps * mu2(1)."""
    return _mixture_moment(1.0, params, inst)


def var_z(params: ModelParams, inst: InstanceParams) -> float:
    """Exact mixture variance (1 - eps) mu1(2) + eps mu2(2) - mean**2; always > 0."""
    value = _mixture_moment(2.0, params, inst) - mean_z(params, inst) ** 2
    if not value > 0.0:
        raise ArithmeticError(f"mixture variance came out non-positive: {value}")
    return value


def _power_of_n(n: int, exponent: float) -> float:
    """n**exponent via logs; overflows are reported as +inf rather than raising."""
    log_value = exponent * math.log(n)
    if log_value > 709.0:  # exp overflow threshold for float64
        return math.inf
    return math.exp(log_value)


def mean_z_asymptotic(params: ModelParams, n: int) -> float:
    """Leading-order per-summand mean.

    alpha != 1:  mu1(1) + (alpha / (1 - alpha)) * n**((1-alpha)*gamma1 - gamma2)
    alpha == 1:  mu1(1) + gamma1 * ln(n) * n**-gamma2
    """
    if n < 2:
        raise ValueError(f"row size n must be >= 2, got {n}")
    light = mu1(1.0, params.lam)
    a = params.alpha
    if a == 1.0:
        return light + params.gamma1 * math.log(n) * _power_of_n(n, -params.gamma2)
    exponent = (1.0 - a) * params.gamma1 - params.gamma2
    return light + (a / (1.0 - a)) * _power_of_n(n, exponent)


def var_z_asymptotic(params: ModelParams, n: int) -> float:
    """Leading-order per-summand variance.

    Var(X) + (alpha / (2 - alpha)) * n**((2-alpha)*gamma1 - gamma2).

    The heavy-term coefficient is alpha/(2-alpha): it is the large-m limit of
    eps * mu2(2), which is what the exact variance converges to, so the ratio
    var_z / var_z_asymptotic tends to 1.
    """
    if n < 2:
        raise ValueError(f"row size n must be >= 2, got {n}")
    a = params.alpha
    var_light = 1.0 / params.lam**2
    exponent = (2.0 - a) * params.gamma1 - params.gamma2
    return var_light + (a / (2.0 - a)) * _power_of_n(n, exponent)
