"""Regime classification on (alpha, gamma1, gamma2) and normalization plans.

For alpha in (0, 1) the (gamma1, gamma2) plane splits into a full CLT region,
a light-part CLT region, and a one-sided-stable region, with a parallel split
for the law of large numbers; the joint assignment defines phase-diagram
zones 1..6.  For alpha in [1, 2) the LLN always holds and the fluctuations
are either Gaussian or one-sided stable.

The inequalities are strict and evaluated in float64, so a point on a decimal
frontier may fall to either side of it: (0.5, 0.2, 0.3) is on gamma2 = (2 -
alpha) gamma1, but 1.5 * 0.2 is 0.30000000000000004 and it is CLT_FULL.  A
point on a frontier in float64 is BOUNDARY and gets no plan (no limit
statement applies there); exact frontiers are an open item of ROADMAP.md.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .diagnostics import centering_a_n
from .model import InstanceParams, ModelParams, mean_z, mu1, var_z
from .stable_limit import StableLimitSpec

__all__ = [
    "Fluctuation",
    "StableBranch",
    "Lln",
    "RegimeReport",
    "NormalizationPlan",
    "classify",
    "normalization_plan",
]


class Fluctuation(enum.Enum):
    """Fluctuation regime of the normalized sums."""

    CLT_FULL = "clt_full"
    CLT_LIGHT_PART = "clt_light_part"
    STABLE = "stable"
    BOUNDARY = "boundary"


class StableBranch(enum.Enum):
    """Centering branch inside the stable regime, as distinguished for alpha < 1.

    SHIFT_ZERO               center n E[X]; uncompensated reference law
    SHIFT_COMPENSATED        center (alpha/(1-alpha)) beta_n; compensated law
    SHIFT_COMPENSATED_EDGE   gamma2 = 1 - alpha exactly: both centering terms
                             present; compensated law

    Stable points with alpha >= 1 report SHIFT_ZERO, yet their plans use the
    compensated law: shifted by alpha/(1-alpha) at alpha > 1, centered at the
    truncated mean at alpha = 1.
    """

    SHIFT_ZERO = "shift_zero"
    SHIFT_COMPENSATED = "shift_compensated"
    SHIFT_COMPENSATED_EDGE = "shift_compensated_boundary"


class Lln(enum.Enum):
    """Law-of-large-numbers regime."""

    FULL = "lln_full"
    LIGHT_PART = "lln_light_part"
    NONE = "none"
    BOUNDARY = "boundary"


_ZONE_TABLE = {
    (Fluctuation.CLT_FULL, Lln.FULL): 1,
    (Fluctuation.CLT_LIGHT_PART, Lln.FULL): 2,
    (Fluctuation.CLT_LIGHT_PART, Lln.LIGHT_PART): 3,
    (Fluctuation.STABLE, Lln.LIGHT_PART): 4,
    (Fluctuation.STABLE, Lln.NONE): 5,
    (Fluctuation.STABLE, Lln.FULL): 6,
}


@dataclass(frozen=True)
class RegimeReport:
    """Joint classification of a parameter point."""

    fluctuation: Fluctuation
    lln: Lln
    zone: int | None = None
    stable_branch: StableBranch | None = None


@dataclass(frozen=True)
class NormalizationPlan:
    """Concrete centering/scale and the reference limit law for one row size.

    ``limit`` is "std_normal" or "stable"; for "stable" the reference law is
    ``stable_spec`` evaluated with ``stable_compensated`` compensation.
    """

    center: float
    scale: float
    limit: str
    stable_spec: StableLimitSpec | None = None
    stable_compensated: bool = False

    def __post_init__(self):
        if self.limit not in ("std_normal", "stable"):
            raise ValueError(f"unknown limit law tag {self.limit!r}")
        if not self.scale > 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if self.limit == "stable" and self.stable_spec is None:
            raise ValueError("stable limit requires a StableLimitSpec")


def classify(alpha: float, gamma1: float, gamma2: float) -> RegimeReport:
    """Classify a parameter point into fluctuation and LLN regimes and a zone.

    Zones are defined only for alpha in (0, 1); boundary points carry no zone.
    """
    # Validate through the shared parameter type (lam is irrelevant here).
    ModelParams(alpha=alpha, lam=1.0, gamma1=gamma1, gamma2=gamma2)
    clt_line = (2.0 - alpha) * gamma1      # full CLT frontier
    smallness_line = 1.0 - alpha * gamma1  # below it, single terms stay negligible
    light_clt_line = 1.0 - alpha / 2.0     # light-part CLT lower frontier

    branch = None
    if gamma2 > clt_line or gamma2 < min(clt_line, smallness_line):
        fluct = Fluctuation.CLT_FULL
    elif alpha >= 1.0:
        if gamma2 == clt_line or gamma2 == smallness_line:
            fluct = Fluctuation.BOUNDARY
        else:
            fluct, branch = Fluctuation.STABLE, StableBranch.SHIFT_ZERO
    elif gamma1 > 0.5 and light_clt_line < gamma2 < clt_line:
        fluct = Fluctuation.CLT_LIGHT_PART
    elif gamma1 > 0.5 and max(smallness_line, 0.0) < gamma2 < light_clt_line:
        fluct = Fluctuation.STABLE
        if gamma2 > 1.0 - alpha:
            branch = StableBranch.SHIFT_ZERO
        elif gamma2 == 1.0 - alpha:
            branch = StableBranch.SHIFT_COMPENSATED_EDGE
        else:
            branch = StableBranch.SHIFT_COMPENSATED
    else:
        fluct = Fluctuation.BOUNDARY

    if alpha >= 1.0:
        return RegimeReport(fluctuation=fluct, lln=Lln.FULL, stable_branch=branch)
    lln_line = (1.0 - alpha) * gamma1
    if gamma2 > lln_line or gamma2 < min(lln_line, smallness_line):
        lln = Lln.FULL
    elif 1.0 - alpha < gamma2 < lln_line:
        lln = Lln.LIGHT_PART
    elif max(smallness_line, 0.0) < gamma2 < 1.0 - alpha:
        lln = Lln.NONE
    else:
        lln = Lln.BOUNDARY
    return RegimeReport(fluctuation=fluct, lln=lln, zone=_ZONE_TABLE.get((fluct, lln)), stable_branch=branch)


def normalization_plan(params: ModelParams, inst: InstanceParams, report: RegimeReport) -> NormalizationPlan:
    """Concrete (center, scale, limit law) for one row size.

    CLT_FULL         (n mean_Z, sqrt(n var_Z), standard normal)
    CLT_LIGHT_PART   (n/lam, sqrt(n)/lam, standard normal)
    STABLE, a < 1    scale beta_n = n**((1-gamma2)/alpha); center and
                     compensation depend on the stable branch
    STABLE, a > 1    (n mean_Z, n**((1-gamma2)/alpha), compensated reference
                     shifted by alpha/(1-alpha) so its mean is zero)
    STABLE, a = 1    (n E[Z 1{Z <= beta_n}], beta_n = n**(1-gamma2),
                     unshifted compensated reference)
    """
    if report.fluctuation is Fluctuation.BOUNDARY:
        raise ValueError("no theorem applies: the point is on a regime boundary")
    n = inst.n
    alpha = params.alpha

    if report.fluctuation is Fluctuation.CLT_FULL:
        return NormalizationPlan(
            center=n * mean_z(params, inst),
            scale=(n * var_z(params, inst)) ** 0.5,
            limit="std_normal",
        )
    if report.fluctuation is Fluctuation.CLT_LIGHT_PART:
        return NormalizationPlan(
            center=n * mu1(1.0, params.lam),
            scale=(n / params.lam**2) ** 0.5,
            limit="std_normal",
        )

    beta_n = float(n) ** ((1.0 - params.gamma2) / alpha)
    window = 0.0 if alpha == 1.0 else alpha / (1.0 - alpha)  # compensation window's mass
    branch = report.stable_branch
    # alpha > 1: center at the exact mean.  The compensated reference has
    # mean alpha/(alpha-1); shifting by alpha/(1-alpha) recentres it at zero,
    # matching the exactly-centered statistic.  At alpha = 1 the limit has no
    # mean and n mean_Z drifts from it by (gamma1+gamma2-1) ln n scale units;
    # the truncated mean n E[Z 1{Z <= beta_n}] truncates exactly at the
    # compensation window of the unshifted reference (Feller II, XVII.5).
    if alpha == 1.0:
        center = beta_n * centering_a_n(params, inst, beta_n)
    elif alpha > 1.0:
        center = n * mean_z(params, inst)
    else:
        light = 0.0 if branch is StableBranch.SHIFT_COMPENSATED else n * mu1(1.0, params.lam)
        center = light + (0.0 if branch is StableBranch.SHIFT_ZERO else window * beta_n)
    return NormalizationPlan(
        center=center,
        scale=beta_n,
        limit="stable",
        stable_spec=StableLimitSpec(alpha=alpha, tail_const=1.0, shift=window if alpha > 1.0 else 0.0),
        stable_compensated=alpha >= 1.0 or branch is not StableBranch.SHIFT_ZERO,
    )
