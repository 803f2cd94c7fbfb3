"""Statistical acceptance machinery: KS tests, ECF distance, LLN ladders.

Convergence in distribution or probability cannot be tested at a single row
size; the operational surrogate used throughout is a ladder of increasing n
with a monotonicity requirement plus an absolute threshold at the top rung.
Critical values are the asymptotic Kolmogorov ones (c(0.01) = 1.628); verdicts
are only meaningful from about a hundred replicates upward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, derive_instance, mean_z, mu1
from .regimes import NormalizationPlan
from .samplers import _mix64, monte_carlo

__all__ = [
    "TestResult",
    "LadderRung",
    "ks_critical_constant",
    "ks_one_sample",
    "ks_two_sample",
    "ecf_distance",
    "lln_ratio_check",
]

# Salt for deriving one master seed per ladder rung (arbitrary odd 64-bit).
_RUNG_SALT = 0xC2B2AE3D27D4EB4F


@dataclass(frozen=True)
class TestResult:
    """Outcome of one fixed-level test; passed <=> statistic < critical_value."""

    statistic: float
    critical_value: float
    passed: bool


def ks_critical_constant(level: float) -> float:
    """Asymptotic Kolmogorov constant c(level) = sqrt(-ln(level/2) / 2)."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    return math.sqrt(-0.5 * math.log(level / 2.0))


def ks_one_sample(sample, cdf, level: float = 0.01) -> TestResult:
    """One-sample KS test of a sorted sample against a reference CDF.

    statistic = max_i max(i/m - F(x_i), F(x_i) - (i-1)/m); the critical value
    is c(level)/sqrt(m).  The sample must already be sorted ascending.
    """
    x = np.asarray(sample, dtype=np.float64)
    if x.size == 0:
        raise ValueError("sample must be nonempty")
    if np.any(np.diff(x) < 0.0):
        raise ValueError("ks_one_sample requires a sorted sample")
    m = x.size
    f = np.asarray(cdf(x), dtype=np.float64)
    grid_hi = np.arange(1, m + 1) / m
    grid_lo = np.arange(0, m) / m
    statistic = float(max(np.max(grid_hi - f), np.max(f - grid_lo)))
    critical = ks_critical_constant(level) / math.sqrt(m)
    return TestResult(statistic, critical, statistic < critical)


def ks_two_sample(a, b, level: float = 0.01) -> TestResult:
    """Two-sample KS test: sup |ECDF_a - ECDF_b| on the pooled sample.

    critical value = c(level) * sqrt((m_a + m_b) / (m_a * m_b)).
    """
    xa = np.sort(np.asarray(a, dtype=np.float64))
    xb = np.sort(np.asarray(b, dtype=np.float64))
    if xa.size == 0 or xb.size == 0:
        raise ValueError("both samples must be nonempty")
    pooled = np.concatenate([xa, xb])
    ca = np.searchsorted(xa, pooled, side="right") / xa.size
    cb = np.searchsorted(xb, pooled, side="right") / xb.size
    statistic = float(np.max(np.abs(ca - cb)))
    critical = ks_critical_constant(level) * math.sqrt(
        (xa.size + xb.size) / (xa.size * xb.size)
    )
    return TestResult(statistic, critical, statistic < critical)


def ecf_distance(sample, exponent, u_grid) -> float:
    """Sup over the grid of |empirical CF - exp(exponent(u))|.

    ``exponent`` maps the whole grid u, an array, to the reference law's complex
    characteristic exponents; the empirical CF is the sample mean of exp(i u x).
    """
    x = np.asarray(sample, dtype=np.float64)
    u = np.asarray(u_grid, dtype=np.float64)
    if x.size == 0 or u.size == 0:
        raise ValueError("sample and grid must be nonempty")
    ecf = np.exp(1j * np.outer(u, x)).mean(axis=1)
    target = np.exp(np.asarray(exponent(u), dtype=np.complex128))
    return float(np.max(np.abs(ecf - target)))


@dataclass(frozen=True)
class LadderRung:
    """Per-rung summary of the ratio S_n / (n * reference mean)."""

    n: int
    median: float
    q05: float
    q95: float
    fraction_within: float
    delta: float


def lln_ratio_check(
    params: ModelParams,
    n_ladder,
    replicates: int,
    seed: int,
    mode: str,
    delta: float = 0.05,
    thread_count: int = 1,
) -> list[LadderRung]:
    """Simulate S_n / (n * mean) along a ladder of row sizes.

    mode "full_mean" divides by the exact mixture mean; "light_mean" divides
    by the light-component mean only.  Each rung reports the median, the 5%
    and 95% quantiles, and the fraction of replicates within 1 +- delta.
    Rung r uses the master seed mix(seed ^ ((r+1) * salt)) so rungs are
    independent.
    """
    ladder = [int(n) for n in n_ladder]
    if len(ladder) < 3:
        raise ValueError("the ladder-monotonicity surrogate needs at least 3 row sizes")
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("n_ladder must be strictly increasing")
    if mode not in ("full_mean", "light_mean"):
        raise ValueError(f"unknown LLN mode {mode!r}")
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")

    identity = NormalizationPlan(center=0.0, scale=1.0, limit="std_normal")
    rungs = []
    for r, n in enumerate(ladder):
        inst = derive_instance(params, n)
        mean = mean_z(params, inst) if mode == "full_mean" else mu1(1.0, params.lam)
        rung_seed = _mix64(seed ^ ((r + 1) * _RUNG_SALT))
        sums = monte_carlo(params, n, replicates, rung_seed, identity, thread_count)
        ratios = sums.values / (n * mean)
        within = float(np.mean(np.abs(ratios - 1.0) < delta))
        q05, q50, q95 = np.quantile(ratios, [0.05, 0.5, 0.95])
        rungs.append(
            LadderRung(
                n=n,
                median=float(q50),
                q05=float(q05),
                q95=float(q95),
                fraction_within=within,
                delta=delta,
            )
        )
    return rungs
