"""Golden values of the closed-form moments, tail sums and plans.

Each closed form is pinned to the last bit (``float.hex``) at five points:
alpha < 1 (two stable branches), alpha = 1, alpha > 1 with lam != 1,
and a pure light row (eps_n = 0).  Three windows are used at each point: beta = 1.5, the plan
scale, and 100 m_n.  So the windows beta * x and tau * beta fall below the
heavy support [1, m_n], inside it and above it, and lam * beta exceeds 745,
where exp(-lam * beta) underflows.  A change to how these formulas are
organised must leave every value unchanged.
"""

import pytest

from mixlim import (
    InstanceParams,
    ModelParams,
    centering_a_n,
    classify,
    derive_instance,
    mean_z,
    mean_z_asymptotic,
    mu1,
    mu2,
    normalization_plan,
    tail_sum,
    truncated_variance,
    var_z,
    var_z_asymptotic,
)

# name: ((alpha, lam, gamma1, gamma2), n, eps_n override)
POINTS = {
    "zone5": ((0.5, 1.0, 2.0, 0.3), 10_000, None),
    "zone4-lam0.7": ((0.5, 0.7, 2.0, 0.6), 100_000, None),
    "alpha1": ((1.0, 1.0, 1.5, 0.4), 3000, None),
    "alpha1.5-lam0.3": ((1.5, 0.3, 2.0, 0.5), 2000, None),
    "light-row": ((0.5, 2.0, 1.0, 2.0), 1000, 0.0),
}


def closed_forms(point):
    """Every pinned value at one point, by label, as ``float.hex``."""
    (alpha, lam, gamma1, gamma2), n, eps_n = point
    params = ModelParams(alpha=alpha, lam=lam, gamma1=gamma1, gamma2=gamma2)
    inst = derive_instance(params, n)
    if eps_n is not None:
        inst = InstanceParams(n=n, eps_n=eps_n, m_n=inst.m_n)
    plan = normalization_plan(params, inst, classify(alpha, gamma1, gamma2))
    values = {
        "mu1(1)": mu1(1.0, lam),
        "mu1(2)": mu1(2.0, lam),
        "mu1(0.5)": mu1(0.5, lam),
        "mu2(1)": mu2(1.0, alpha, inst.m_n),
        "mu2(2)": mu2(2.0, alpha, inst.m_n),
        "mu2(alpha)": mu2(alpha, alpha, inst.m_n),
        "mean_z": mean_z(params, inst),
        "var_z": var_z(params, inst),
        "mean_z_asymptotic": mean_z_asymptotic(params, n),
        "var_z_asymptotic": var_z_asymptotic(params, n),
        "plan.center": plan.center,
        "plan.scale": plan.scale,
    }
    for k, beta in enumerate((1.5, plan.scale, 100.0 * inst.m_n)):
        values[f"centering_a_n(b{k})"] = centering_a_n(params, inst, beta)
        for x in (0.5, 4.0):
            values[f"tail_sum({x}, b{k})"] = tail_sum(x, params, inst, beta)
        for tau in (0.1, 1000.0):
            values[f"truncated_variance(b{k}, {tau})"] = truncated_variance(
                params, inst, beta, tau
            )
    return {label: float(value).hex() for label, value in values.items()}


GOLDEN = {
    'zone5': {
        'mu1(1)': '0x1.0000000000000p+0',
        'mu1(2)': '0x1.0000000000000p+1',
        'mu1(0.5)': '0x1.c5bf891b4ef6ap-1',
        'mu2(1)': '0x1.3880000000005p+13',
        'mu2(2)': '0x1.3678cecac000ep+38',
        'mu2(alpha)': '0x1.26c2a7792b5d2p+3',
        'mean_z': '0x1.3bf276be2ebbep+9',
        'var_z': '0x1.396ce03aeb0e7p+34',
        'mean_z_asymptotic': '0x1.3bfa8a4390b7dp+9',
        'var_z_asymptotic': '0x1.3966600eeb156p+34',
        'plan.center': '0x1.84c6caea5936ep+18',
        'plan.scale': '0x1.84c6caea5936ep+18',
        'centering_a_n(b0)': '0x1.650c300732892p+11',
        'tail_sum(0.5, b0)': '0x1.3c09468eeddc9p+12',
        'tail_sum(4.0, b0)': '0x1.18c600e8bdf8fp+8',
        'truncated_variance(b0, 0.1)': '0x1.e43c6e575f2f3p+1',
        'truncated_variance(b0, 1000.0)': '0x1.48ff010145524p+22',
        'centering_a_n(b1)': '0x1.05a4ffa6cbe7ap+0',
        'tail_sum(0.5, b1)': '0x1.59ebb6aab47cdp+0',
        'tail_sum(4.0, b1)': '0x1.bf6f493efe997p-2',
        'truncated_variance(b1, 0.1)': '0x1.5911902cd8b01p-7',
        'truncated_variance(b1, 1000.0)': '0x1.4bc86940a79a8p+10',
        'centering_a_n(b2)': '0x1.4b4b69102a735p-11',
        'tail_sum(0.5, b2)': '0x0.0p+0',
        'tail_sum(4.0, b2)': '0x0.0p+0',
        'truncated_variance(b2, 0.1)': '0x1.1a4ef3eff2410p-19',
        'truncated_variance(b2, 1000.0)': '0x1.1a4ef3eff2410p-19',
    },
    'zone4-lam0.7': {
        'mu1(1)': '0x1.6db6db6db6db7p+0',
        'mu1(2)': '0x1.05397829cbc16p+2',
        'mu1(0.5)': '0x1.0f2a999ef779dp+0',
        'mu2(1)': '0x1.86a0000000002p+16',
        'mu2(2)': '0x1.2f2afd9bf8df9p+48',
        'mu2(alpha)': '0x1.706ad41c55278p+3',
        'mean_z': '0x1.95b564efe8986p+6',
        'var_z': '0x1.3671a6e882729p+38',
        'mean_z_asymptotic': '0x1.95b6db6db6dbap+6',
        'var_z_asymptotic': '0x1.3670dc155d7edp+38',
        'plan.center': '0x1.1704924924925p+17',
        'plan.scale': '0x1.3880000000003p+13',
        'centering_a_n(b0)': '0x1.a463ed70ba4b4p+14',
        'tail_sum(0.5, b0)': '0x1.ce78c3055b5d2p+15',
        'tail_sum(4.0, b0)': '0x1.80b8789d04500p+10',
        'truncated_variance(b0, 0.1)': '0x1.dee564431dccdp+4',
        'truncated_variance(b0, 1000.0)': '0x1.ce29bff1ba933p+19',
        'centering_a_n(b1)': '0x1.e85db436a4117p+3',
        'tail_sum(0.5, b1)': '0x1.69c94a4a52ca8p+0',
        'tail_sum(4.0, b1)': '0x1.fefb2a0338737p-2',
        'truncated_variance(b1, 0.1)': '0x1.9960480aceb66p-7',
        'truncated_variance(b1, 1000.0)': '0x1.49681c9b01f9ap+13',
        'centering_a_n(b2)': '0x1.54554096b562ap-17',
        'tail_sum(0.5, b2)': '0x0.0p+0',
        'tail_sum(4.0, b2)': '0x0.0p+0',
        'truncated_variance(b2, 0.1)': '0x1.1e55818534a8ap-25',
        'truncated_variance(b2, 1000.0)': '0x1.1e55818534a8ap-25',
    },
    'alpha1': {
        'mu1(1)': '0x1.0000000000000p+0',
        'mu1(2)': '0x1.0000000000000p+1',
        'mu1(0.5)': '0x1.c5bf891b4ef6ap-1',
        'mu2(1)': '0x1.804ed7e9bb2bbp+3',
        'mu2(2)': '0x1.40ee62354c7d1p+17',
        'mu2(alpha)': '0x1.804ed7e9bb2bbp+3',
        'mean_z': '0x1.72983481972f5p+0',
        'var_z': '0x1.a18b2d4d45467p+12',
        'mean_z_asymptotic': '0x1.7d009b50d615bp+0',
        'var_z_asymptotic': '0x1.a19e02257ee3cp+12',
        'plan.center': '0x1.b0ff409624bd0p+11',
        'plan.scale': '0x1.e7e6f434b7d43p+6',
        'centering_a_n(b0)': '0x1.b8aea128c7ab9p+9',
        'tail_sum(0.5, b0)': '0x1.725d506b367b3p+10',
        'tail_sum(4.0, b0)': '0x1.b76698538b8f5p+4',
        'truncated_variance(b0, 0.1)': '0x1.28bcc11b13df6p+0',
        'truncated_variance(b0, 1000.0)': '0x1.3f33de46cd628p+16',
        'centering_a_n(b1)': '0x1.c66213c4d966bp+4',
        'tail_sum(0.5, b1)': '0x1.ffd026139ae30p+0',
        'tail_sum(4.0, b1)': '0x1.fe7b9b29df852p-3',
        'truncated_variance(b1, 0.1)': '0x1.01924a2434b5ep-2',
        'truncated_variance(b1, 1000.0)': '0x1.f3fc104ffd5f6p+9',
        'centering_a_n(b2)': '0x1.1523b2f96356bp-12',
        'tail_sum(0.5, b2)': '0x0.0p+0',
        'tail_sum(4.0, b2)': '0x0.0p+0',
        'truncated_variance(b2, 0.1)': '0x1.3ed0bb0487793p-24',
        'truncated_variance(b2, 1000.0)': '0x1.3ed0bb0487793p-24',
    },
    'alpha1.5-lam0.3': {
        'mu1(1)': '0x1.aaaaaaaaaaaabp+1',
        'mu1(2)': '0x1.638e38e38e38ep+4',
        'mu1(0.5)': '0x1.9e36a9c593d0bp+0',
        'mu2(1)': '0x1.7fced91755393p+1',
        'mu2(2)': '0x1.76d00000c939cp+12',
        'mu2(alpha)': '0x1.6cd7e3b1fb321p+4',
        'mean_z': '0x1.a9b5544fd5c7bp+1',
        'var_z': '0x1.2185a9e0d42e4p+7',
        'mean_z_asymptotic': '0x1.aaa9914de01a8p+1',
        'var_z_asymptotic': '0x1.228ce5ac20396p+7',
        'plan.center': '0x1.9fbb1455f6c50p+12',
        'plan.scale': '0x1.932cbb7f0cf2dp+3',
        'centering_a_n(b0)': '0x1.58337a3b92b05p+8',
        'tail_sum(0.5, b0)': '0x1.9182c1987f0dep+10',
        'tail_sum(4.0, b0)': '0x1.463f8fd62948cp+8',
        'truncated_variance(b0, 0.1)': '0x1.190a95b6d460ep-2',
        'truncated_variance(b0, 1000.0)': '0x1.6ed7da596a4b9p+13',
        'centering_a_n(b1)': '0x1.d481960300040p+8',
        'tail_sum(0.5, b1)': '0x1.2a403a6cc04fdp+8',
        'tail_sum(4.0, b1)': '0x1.011663b84a290p-3',
        'truncated_variance(b1, 0.1)': '0x1.839587a919c13p+0',
        'truncated_variance(b1, 1000.0)': '0x1.c8dbc2b78510dp+7',
        'centering_a_n(b2)': '0x1.16fe01060931ep-16',
        'tail_sum(0.5, b2)': '0x0.0p+0',
        'tail_sum(4.0, b2)': '0x0.0p+0',
        'truncated_variance(b2, 0.1)': '0x1.fd552c360d241p-40',
        'truncated_variance(b2, 1000.0)': '0x1.fd552c360d241p-40',
    },
    'light-row': {
        'mu1(1)': '0x1.0000000000000p-1',
        'mu1(2)': '0x1.0000000000000p-1',
        'mu1(0.5)': '0x1.40d931ff62705p-1',
        'mu2(1)': '0x1.f9f6e4990f226p+4',
        'mu2(2)': '0x1.542665f9bf5cdp+13',
        'mu2(alpha)': '0x1.c8887ecc056bap+1',
        'mean_z': '0x1.0000000000000p-1',
        'var_z': '0x1.0000000000000p-2',
        'mean_z_asymptotic': '0x1.0004251595270p-1',
        'var_z_asymptotic': '0x1.0acb3d89c026fp-2',
        'plan.center': '0x1.f400000000000p+8',
        'plan.scale': '0x1.f9f6e4990f227p+3',
        'centering_a_n(b0)': '0x1.0af358eaa5be8p+8',
        'tail_sum(0.5, b0)': '0x1.be42a459d97f4p+7',
        'tail_sum(4.0, b0)': '0x1.92aac71e02620p-8',
        'truncated_variance(b0, 0.1)': '0x1.4bede8252e778p-1',
        'truncated_variance(b0, 1000.0)': '0x1.bc71c71c71c71p+6',
        'centering_a_n(b1)': '0x1.f9f6e4990dd35p+4',
        'tail_sum(0.5, b1)': '0x1.1cfdb555787aep-13',
        'tail_sum(4.0, b1)': '0x1.647bd4a132391p-173',
        'truncated_variance(b1, 0.1)': '0x1.1761931311eacp-1',
        'truncated_variance(b1, 1000.0)': '0x1.0000000000001p+0',
        'centering_a_n(b2)': '0x1.47ae147ae147bp-8',
        'tail_sum(0.5, b2)': '0x0.0p+0',
        'tail_sum(4.0, b2)': '0x0.0p+0',
        'truncated_variance(b2, 0.1)': '0x1.ad7f29abcaf48p-26',
        'truncated_variance(b2, 1000.0)': '0x1.ad7f29abcaf48p-26',
    },
}


@pytest.mark.parametrize("name", list(POINTS))
def test_closed_forms_bit_for_bit(name):
    assert closed_forms(POINTS[name]) == GOLDEN[name]
