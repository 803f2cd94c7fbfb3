"""Classifier spot checks, partition/frontier properties, plan contracts, and
a golden table of classes and plans."""

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixlim import (
    Fluctuation,
    Lln,
    ModelParams,
    StableBranch,
    classify,
    derive_instance,
    mean_z,
    normalization_plan,
    var_z,
)
from mixlim.cli import _parse_range

from conftest import oracle_centering

INTERIOR_LLN = (Lln.FULL, Lln.LIGHT_PART, Lln.NONE)
INTERIOR_FLUCT = (Fluctuation.CLT_FULL, Fluctuation.CLT_LIGHT_PART, Fluctuation.STABLE)

ZONE_OF = {
    (Fluctuation.CLT_FULL, Lln.FULL): 1,
    (Fluctuation.CLT_LIGHT_PART, Lln.FULL): 2,
    (Fluctuation.CLT_LIGHT_PART, Lln.LIGHT_PART): 3,
    (Fluctuation.STABLE, Lln.LIGHT_PART): 4,
    (Fluctuation.STABLE, Lln.NONE): 5,
    (Fluctuation.STABLE, Lln.FULL): 6,
}


class TestSpotChecks:
    def test_zone1(self):
        r = classify(0.5, 1.0, 2.0)
        assert (r.fluctuation, r.lln, r.zone) == (Fluctuation.CLT_FULL, Lln.FULL, 1)

    def test_zone4(self):
        r = classify(0.5, 2.0, 0.6)
        assert (r.fluctuation, r.lln, r.zone) == (Fluctuation.STABLE, Lln.LIGHT_PART, 4)
        assert r.stable_branch is StableBranch.SHIFT_ZERO  # 0.6 in (0.5, 0.75)

    def test_zone5(self):
        r = classify(0.5, 2.0, 0.3)
        assert (r.fluctuation, r.lln, r.zone) == (Fluctuation.STABLE, Lln.NONE, 5)
        assert r.stable_branch is StableBranch.SHIFT_COMPENSATED  # 0.3 < 1 - alpha

    def test_zone6(self):
        # stable window (max(1-0.3, 0), 0.75) = (0.7, 0.75); lln full since 0.72 > 0.3
        r = classify(0.5, 0.6, 0.72)
        assert (r.fluctuation, r.lln, r.zone) == (Fluctuation.STABLE, Lln.FULL, 6)
        assert r.stable_branch is StableBranch.SHIFT_ZERO

    def test_boundary_on_clt_line(self):
        r = classify(0.5, 1.0, 1.5)  # gamma2 = (2 - alpha) * gamma1 exactly
        assert r.fluctuation is Fluctuation.BOUNDARY
        assert r.zone is None

    def test_alpha_above_one(self):
        r = classify(1.5, 2.0, 0.5)  # 0.5 < (2-a)g1 = 1 and 0.5 > 1 - a g1 = -2
        assert r.fluctuation is Fluctuation.STABLE
        assert r.lln is Lln.FULL
        assert r.zone is None

    def test_zone2_and_zone3(self):
        r2 = classify(0.5, 1.0, 1.3)
        assert (r2.fluctuation, r2.lln, r2.zone) == (Fluctuation.CLT_LIGHT_PART, Lln.FULL, 2)
        r3 = classify(0.5, 2.0, 0.9)  # lln light: 0.9 in (0.5, 1.0)
        assert (r3.fluctuation, r3.lln, r3.zone) == (Fluctuation.CLT_LIGHT_PART, Lln.LIGHT_PART, 3)

    def test_compensated_edge_branch(self):
        r = classify(0.5, 2.0, 0.5)  # gamma2 = 1 - alpha exactly, inside the window
        assert r.fluctuation is Fluctuation.STABLE
        assert r.stable_branch is StableBranch.SHIFT_COMPENSATED_EDGE


class TestPartition:
    def test_grid_partition(self):
        """Interior grid points carry exactly one regime pair and one zone."""
        alpha = 0.5
        for i in range(1, 201):
            for j in range(1, 201):
                g1 = 3.0 * i / 200.0
                g2 = 3.0 * j / 200.0
                r = classify(alpha, g1, g2)
                if r.fluctuation is Fluctuation.BOUNDARY or r.lln is Lln.BOUNDARY:
                    assert r.zone is None
                    continue
                assert r.fluctuation in INTERIOR_FLUCT
                assert r.lln in INTERIOR_LLN
                assert r.zone == ZONE_OF[(r.fluctuation, r.lln)]

    @settings(max_examples=300, deadline=None)
    @given(
        alpha=st.floats(0.05, 0.95),
        g1=st.floats(0.01, 3.0),
        g2=st.floats(0.01, 3.0),
    )
    def test_random_points_classified(self, alpha, g1, g2):
        r = classify(alpha, g1, g2)
        if r.fluctuation is not Fluctuation.BOUNDARY and r.lln is not Lln.BOUNDARY:
            assert r.zone in (1, 2, 3, 4, 5, 6)

    def test_monotone_frontier(self):
        """For gamma1 > 1/2, increasing gamma2 walks stable -> light CLT -> full CLT."""
        alpha = 0.5
        for g1 in (0.8, 1.2, 2.0, 2.7):
            light_line = 1.0 - alpha / 2.0
            clt_line = (2.0 - alpha) * g1
            seen = []
            for k in range(1, int(1e3 * (clt_line + 0.5))):
                g2 = k * 1e-3
                r = classify(alpha, g1, g2)
                if r.fluctuation in INTERIOR_FLUCT and (not seen or seen[-1][1] != r.fluctuation):
                    seen.append((g2, r.fluctuation))
            kinds = [s[1] for s in seen]
            assert kinds[-3:] == [Fluctuation.STABLE, Fluctuation.CLT_LIGHT_PART, Fluctuation.CLT_FULL]
            transitions = [s[0] for s in seen][-2:]
            assert transitions[0] == pytest.approx(light_line, abs=2e-3)
            assert transitions[1] == pytest.approx(clt_line, abs=2e-3)

    def test_lln_always_full_above_one(self):
        for alpha in (1.0, 1.2, 1.5, 1.9):
            for g1 in (0.1, 0.7, 1.5, 2.9):
                for g2 in (0.1, 0.7, 1.5, 2.9):
                    assert classify(alpha, g1, g2).lln is Lln.FULL


class TestNormalizationPlan:
    def test_zone1_plan(self):
        p = ModelParams(alpha=0.5, lam=1.0, gamma1=1.0, gamma2=2.0)
        n = 10**4
        inst = derive_instance(p, n)
        plan = normalization_plan(p, inst, classify(0.5, 1.0, 2.0))
        assert plan.limit == "std_normal"
        assert plan.center == pytest.approx(n * mean_z(p, inst), rel=1e-14)
        assert plan.scale == pytest.approx(math.sqrt(n * var_z(p, inst)), rel=1e-14)

    def test_zone4_plan(self):
        p = ModelParams(alpha=0.5, lam=1.0, gamma1=2.0, gamma2=0.6)
        n = 10**5
        inst = derive_instance(p, n)
        plan = normalization_plan(p, inst, classify(0.5, 2.0, 0.6))
        assert plan.limit == "stable"
        assert plan.center == pytest.approx(float(n), rel=1e-14)
        assert plan.scale == pytest.approx(10.0**4, rel=1e-12)  # n**0.8
        assert not plan.stable_compensated
        assert plan.stable_spec.shift == 0.0

    def test_zone5_plan(self):
        p = ModelParams(alpha=0.5, lam=1.0, gamma1=2.0, gamma2=0.3)
        n = 10**5
        inst = derive_instance(p, n)
        plan = normalization_plan(p, inst, classify(0.5, 2.0, 0.3))
        assert plan.limit == "stable"
        assert plan.scale == pytest.approx(10.0**7, rel=1e-12)  # n**1.4
        assert plan.center == pytest.approx(10.0**7, rel=1e-12)  # (a/(1-a)) = 1 at 0.5
        assert plan.stable_compensated

    def test_light_part_plan(self):
        p = ModelParams(alpha=0.5, lam=2.0, gamma1=1.0, gamma2=1.3)
        n = 10**4
        inst = derive_instance(p, n)
        plan = normalization_plan(p, inst, classify(0.5, 1.0, 1.3))
        assert plan.limit == "std_normal"
        assert plan.center == pytest.approx(n / 2.0, rel=1e-14)
        assert plan.scale == pytest.approx(math.sqrt(n / 4.0), rel=1e-14)

    def test_alpha_ge_one_plan(self):
        p = ModelParams(alpha=1.5, lam=1.0, gamma1=2.0, gamma2=0.5)
        n = 10**4
        inst = derive_instance(p, n)
        plan = normalization_plan(p, inst, classify(1.5, 2.0, 0.5))
        assert plan.limit == "stable"
        assert plan.center == pytest.approx(n * mean_z(p, inst), rel=1e-14)
        assert plan.scale == pytest.approx(float(n) ** ((1.0 - 0.5) / 1.5), rel=1e-14)
        assert plan.stable_compensated
        assert plan.stable_spec.shift == pytest.approx(1.5 / (1.0 - 1.5))

    def test_alpha_one_plan(self):
        """Center n E[Z 1{Z <= beta_n}], unshifted compensated reference."""
        p = ModelParams(alpha=1.0, lam=1.0, gamma1=2.0, gamma2=0.3)
        n = 10**4
        inst = derive_instance(p, n)
        plan = normalization_plan(p, inst, classify(1.0, 2.0, 0.3))
        beta = float(n) ** 0.7
        want = beta * oracle_centering(1.0, 1.0, inst.eps_n, inst.m_n, n, beta)
        assert plan.limit == "stable"
        assert plan.scale == pytest.approx(beta, rel=1e-14)
        assert plan.center == pytest.approx(want, rel=1e-9)
        assert plan.stable_compensated
        assert plan.stable_spec.shift == 0.0

    def test_boundary_has_no_plan(self):
        p = ModelParams(alpha=0.5, lam=1.0, gamma1=1.0, gamma2=1.5)
        inst = derive_instance(p, 100)
        with pytest.raises(ValueError, match="no theorem applies"):
            normalization_plan(p, inst, classify(0.5, 1.0, 1.5))

    def test_scale_positive_and_center_finite(self):
        ladder = [10**3, 10**5, 10**8]
        for alpha in (0.3, 0.5, 0.8, 1.2, 1.9):
            for g1 in (0.6, 1.0, 2.0, 3.0):
                for g2 in (0.2, 0.7, 1.1, 2.9):
                    r = classify(alpha, g1, g2)
                    if r.fluctuation not in INTERIOR_FLUCT:
                        continue
                    p = ModelParams(alpha=alpha, lam=1.0, gamma1=g1, gamma2=g2)
                    for n in ladder:
                        plan = normalization_plan(p, derive_instance(p, n), r)
                        assert plan.scale > 0.0
                        assert math.isfinite(plan.center)


# Golden regime table: sha256 digests of ``classify`` on fixed grids and of
# ``normalization_plan`` on a fixed subset.  Floats are written with
# ``float.hex``, so any change of class, branch, zone, center, scale or
# reference law shows up; a change that moves one on purpose records new
# digests and says why.
SWEEP_GRID = [k / 20 for k in range(1, 61)]   # the grid perfbench's sweep screens
README_ALPHAS = (0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.25, 1.5, 1.75)
FRONTIER_ALPHAS = (0.25, 0.5, 0.75, 1.0, 1.5)
FRONTIER_GAMMA1 = (0.25, 0.5, 0.6, 1.0, 1.2, 2.0, 3.0)
PLAN_GRID = [k / 4 for k in range(1, 13)]
PLAN_NS = (10**2, 10**4, 10**6)
PLAN_LAMS = (0.7, 1.0, 2.0)

GOLDEN_REGIMES = {
    "frontier": "a822c85ed49909408f9dc22499101e2f2b6fd0f05c40d1ddb01f4c2e26fe2816",
    "plans": "7e48d015df570f3465b95ebce0e7d9c36b803210ee9a7a9d25ea199998138448",
    "readme": "96dbccfe34ad5d18abfca17fec4e864a7abfb62a5c4267ff439c202840bb7832",
    "sweep": "abb145242d6a8867bb2098c243196eed8759d18882f780e58828e48f2437f0ce",
}


def _class_line(alpha, g1, g2):
    r = classify(alpha, g1, g2)
    branch = r.stable_branch.value if r.stable_branch is not None else "-"
    return f"{alpha.hex()} {g1.hex()} {g2.hex()} {r.fluctuation.value} {r.lln.value} {r.zone} {branch}"


def _frontier_points():
    """Points on each frontier line, and one ulp either side of it."""
    for alpha in FRONTIER_ALPHAS:
        for g1 in FRONTIER_GAMMA1:
            lines = (
                (2.0 - alpha) * g1,     # full CLT
                1.0 - alpha * g1,       # smallness
                1.0 - alpha / 2.0,      # light-part CLT
                1.0 - alpha,            # stable branch / LLN none
                (1.0 - alpha) * g1,     # LLN full
            )
            for line in lines:
                for g2 in (math.nextafter(line, -math.inf), line, math.nextafter(line, math.inf)):
                    if g2 > 0.0:
                        yield alpha, g1, g2


def _plan_line(alpha, g1, g2, n, lam):
    p = ModelParams(alpha=alpha, lam=lam, gamma1=g1, gamma2=g2)
    head = f"{alpha.hex()} {g1.hex()} {g2.hex()} {n} {lam.hex()}"
    try:
        plan = normalization_plan(p, derive_instance(p, n), classify(alpha, g1, g2))
    except (ValueError, ArithmeticError) as exc:
        return f"{head} {type(exc).__name__}: {exc}"
    spec = plan.stable_spec
    spec_text = "-" if spec is None else f"{spec.alpha.hex()} {spec.tail_const.hex()} {spec.shift.hex()}"
    return (f"{head} {plan.center.hex()} {plan.scale.hex()} {plan.limit} {spec_text} "
            f"{plan.stable_compensated}")


def _regime_lines(table):
    if table == "sweep":
        return [_class_line(a, g1, g2) for a in (0.5, 1.5) for g1 in SWEEP_GRID for g2 in SWEEP_GRID]
    if table == "readme":
        grid = _parse_range("0.05:3:0.05")
        return [_class_line(a, g1, g2) for a in README_ALPHAS for g1 in grid for g2 in grid]
    if table == "frontier":
        return [_class_line(*point) for point in _frontier_points()]
    return [_plan_line(a, g1, g2, n, lam) for a in README_ALPHAS for g1 in PLAN_GRID
            for g2 in PLAN_GRID for n in PLAN_NS for lam in PLAN_LAMS]


@pytest.mark.parametrize("table", sorted(GOLDEN_REGIMES))
def test_golden_regime_table(table):
    text = "\n".join(_regime_lines(table)) + "\n"
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == GOLDEN_REGIMES[table]
