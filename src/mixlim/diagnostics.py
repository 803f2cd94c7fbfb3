"""Numeric checks of the proof-level convergence conditions.

These functions evaluate, at finite n, the quantities whose limits drive the
regime classification: the scaled tail sums of the row (whose limit is the
Levy tail of the stable reference), the Lyapounov moment ratio (vanishes
exactly in the CLT regimes), the truncated-mean centering sequence, and the
truncated-variance functional at a fixed window (the Gaussian-part detector).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .model import InstanceParams, ModelParams, _mixture_moment, _pareto_mass, mean_z, var_z

__all__ = [
    "DiagnosticsReport",
    "collect_diagnostics",
    "tail_sum",
    "lyapounov_ratio",
    "centering_a_n",
    "truncated_variance",
]


@dataclass(frozen=True)
class DiagnosticsReport:
    """Bundle of diagnostics at one (params, n, beta_n) working point."""

    tail_sum_values: dict[float, float]
    lyapounov: float
    centering_a_n: float
    truncated_var: float


def collect_diagnostics(
    params: ModelParams,
    inst: InstanceParams,
    beta_n: float,
    x_grid=(0.5, 1.0, 2.0),
    delta: float = 0.5,
    tau: float = 0.1,
) -> DiagnosticsReport:
    """Evaluate all four diagnostics at one working point."""
    return DiagnosticsReport(
        tail_sum_values={float(x): tail_sum(float(x), params, inst, beta_n) for x in x_grid},
        lyapounov=lyapounov_ratio(params, inst, delta),
        centering_a_n=centering_a_n(params, inst, beta_n),
        truncated_var=truncated_variance(params, inst, beta_n, tau),
    )


def tail_sum(x: float, params: ModelParams, inst: InstanceParams, beta_n: float) -> float:
    """Sum over the row of P(Z > beta_n * x), in exact closed form.

    n [ (1-eps) e^{-lam beta x} + eps ((beta x)^-alpha - m^-alpha)^+ / (1 - m^-alpha) ],
    with the heavy term clamped to full mass when beta x < 1 and to zero when
    beta x >= m.
    """
    if not x > 0.0:
        raise ValueError(f"x must be positive, got {x}")
    if not beta_n > 0.0:
        raise ValueError(f"beta_n must be positive, got {beta_n}")
    v = beta_n * x
    light = math.exp(-params.lam * v) if params.lam * v < 745.0 else 0.0
    alpha, m = params.alpha, inst.m_n
    if v < 1.0:
        heavy = 1.0
    elif v >= m:
        heavy = 0.0
    else:
        heavy = (v**-alpha - m**-alpha) / _pareto_mass(alpha, m)
    return inst.n * ((1.0 - inst.eps_n) * light + inst.eps_n * heavy)


def _quad(fn, a: float, b: float, rel: float = 1e-9) -> tuple[float, float]:
    from scipy import integrate

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        value, err = integrate.quad(fn, a, b, epsabs=0.0, epsrel=rel, limit=400)
    return value, err


def _abs_central_moment(params: ModelParams, inst: InstanceParams, order: float) -> float:
    """E|Z - EZ|**order by adaptive quadrature over the mixture density.

    The light part integrates lam e^{-lam x} on [0, inf), the heavy part
    alpha x^{-alpha-1}/(1 - m^-alpha) on [1, m]; both are split at the
    |x - EZ| kink.  Heavy integrals run in log-space so enormous truncation
    levels stay well conditioned.
    """
    lam, alpha, eps, m = params.lam, params.alpha, inst.eps_n, inst.m_n
    center = mean_z(params, inst)

    def light_part(x):
        return abs(x - center) ** order * lam * math.exp(-lam * x)

    pieces = []
    errs = []
    split = min(max(center, 0.0), 700.0 / lam)
    for a, b in ((0.0, split), (split, math.inf)):
        if a < b:
            val, err = _quad(light_part, a, b)
            pieces.append((1.0 - eps) * val)
            errs.append((1.0 - eps) * err)

    if eps > 0.0:
        denom = _pareto_mass(alpha, m)

        def heavy_part_log(t):
            x = math.exp(t)
            return abs(x - center) ** order * alpha * math.exp(-alpha * t) / denom

        log_m = math.log(m)
        heavy_splits = [0.0]
        if 1.0 < center < m:
            heavy_splits.append(math.log(center))
        heavy_splits.append(log_m)
        for a, b in zip(heavy_splits, heavy_splits[1:]):
            if a < b:
                val, err = _quad(heavy_part_log, a, b)
                pieces.append(eps * val)
                errs.append(eps * err)

    total = math.fsum(pieces)
    if total > 0.0 and math.fsum(errs) / total > 1e-6:
        raise ArithmeticError(
            f"absolute-moment quadrature did not reach 1e-6 relative accuracy "
            f"(estimate {math.fsum(errs) / total:.3e})"
        )
    return total


def lyapounov_ratio(params: ModelParams, inst: InstanceParams, delta: float = 0.5) -> float:
    """Lyapounov ratio E|Z - EZ|^(2+delta) / (n^(delta/2) Var(Z)^(1+delta/2)).

    Vanishing along an n-ladder certifies the full CLT; in the stable regimes
    it does not tend to zero.
    """
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    numerator = _abs_central_moment(params, inst, 2.0 + delta)
    variance = var_z(params, inst)
    return numerator / (inst.n ** (delta / 2.0) * variance ** (1.0 + delta / 2.0))


def centering_a_n(params: ModelParams, inst: InstanceParams, beta_n: float) -> float:
    """Truncated-mean centering sum a_n = (n/beta) E[Z 1{Z < beta}], closed form.

    Requires beta_n > 1 so the truncation window meets the heavy support; a
    window within 1e-8 of the support edge is indistinguishable from empty at
    double precision and is rejected too.
    """
    if not beta_n > 1.0 + 1e-8:
        raise ValueError(f"beta_n must exceed 1, got {beta_n}")
    return inst.n / beta_n * _mixture_moment(1.0, params, inst, beta_n)


def truncated_variance(
    params: ModelParams, inst: InstanceParams, beta_n: float, tau: float
) -> float:
    """Gaussian-part functional: n [ E[W^2 1{W<tau}] - (E[W 1{W<tau}])^2 ],
    with W = Z / beta_n, in closed form.

    In the CLT regime with beta = sqrt(n Var Z) and a window covering the
    whole support this is ~ 1; in the stable regimes it stays bounded and is
    driven to zero as tau shrinks.
    """
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    if not beta_n > 0.0:
        raise ValueError(f"beta_n must be positive, got {beta_n}")
    cut = tau * beta_n
    first = _mixture_moment(1.0, params, inst, cut) / beta_n
    second = _mixture_moment(2.0, params, inst, cut) / beta_n**2
    return inst.n * (second - first * first)
