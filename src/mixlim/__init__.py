"""mixlim: Monte Carlo verification of limit theorems for light-tail /
truncated-heavy-tail mixture sums.

The library simulates row sums of a triangular array whose entries mix an
Exponential(lambda) component with a Pareto(alpha) component truncated at
n**gamma1 and mixed in with probability n**-gamma2, classifies the parameter
point into its fluctuation/LLN regime, and checks the predicted limit law
(standard normal or one-sided alpha-stable) against reproducible simulation.
"""

from .diagnostics import (
    DiagnosticsReport,
    centering_a_n,
    collect_diagnostics,
    lyapounov_ratio,
    tail_sum,
    truncated_variance,
)
from .model import (
    InstanceParams,
    ModelParams,
    derive_instance,
    mean_z,
    mean_z_asymptotic,
    mu1,
    mu2,
    quantile_light,
    quantile_truncated_pareto,
    var_z,
    var_z_asymptotic,
)
from .regimes import (
    Fluctuation,
    Lln,
    NormalizationPlan,
    RegimeReport,
    StableBranch,
    classify,
    normalization_plan,
)
from .samplers import (
    RngStream,
    SumSample,
    monte_carlo,
    sample_mixture,
    sample_sum,
    substream_seed,
)
from .stable_limit import StableLimitSpec, cdf, char_exponent, sample_stable
from .stats import (
    LadderRung,
    TestResult,
    ecf_distance,
    ks_critical_constant,
    ks_one_sample,
    ks_two_sample,
    lln_ratio_check,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ModelParams",
    "InstanceParams",
    "derive_instance",
    "mu1",
    "mu2",
    "mean_z",
    "var_z",
    "mean_z_asymptotic",
    "var_z_asymptotic",
    "quantile_light",
    "quantile_truncated_pareto",
    "Fluctuation",
    "StableBranch",
    "Lln",
    "RegimeReport",
    "NormalizationPlan",
    "classify",
    "normalization_plan",
    "RngStream",
    "SumSample",
    "substream_seed",
    "sample_mixture",
    "sample_sum",
    "monte_carlo",
    "StableLimitSpec",
    "char_exponent",
    "cdf",
    "sample_stable",
    "TestResult",
    "LadderRung",
    "ks_critical_constant",
    "ks_one_sample",
    "ks_two_sample",
    "ecf_distance",
    "lln_ratio_check",
    "DiagnosticsReport",
    "collect_diagnostics",
    "tail_sum",
    "lyapounov_ratio",
    "centering_a_n",
    "truncated_variance",
]
