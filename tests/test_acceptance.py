"""Full-scale acceptance campaign.

Each test prints one PASS/FAIL line.  Three checks (marked in their
docstrings) encode asymptotic targets that the simulation honestly
contradicts at these scales; they are kept at their stated thresholds and
fail, with the quantitative reason documented in the docstring.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest
from scipy.special import erfc, ndtr

import mixlim as mx
from mixlim import (
    InstanceParams,
    ModelParams,
    RngStream,
    StableLimitSpec,
    classify,
    derive_instance,
    ecf_distance,
    ks_one_sample,
    ks_two_sample,
    lln_ratio_check,
    lyapounov_ratio,
    mean_z,
    monte_carlo,
    mu1,
    mu2,
    normalization_plan,
    sample_stable,
    substream_seed,
    tail_sum,
    var_z,
)
from mixlim.cli import main as cli_main
from mixlim.stable_limit import char_exponent

from conftest import (
    oracle_centering,
    oracle_mean_z,
    oracle_mu1,
    oracle_mu2,
    oracle_var_z,
)

pytestmark = pytest.mark.slow

THREADS = 4


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def simulate(alpha, lam, gamma1, gamma2, n, reps, seed=42):
    params = ModelParams(alpha=alpha, lam=lam, gamma1=gamma1, gamma2=gamma2)
    rep = classify(alpha, gamma1, gamma2)
    plan = normalization_plan(params, derive_instance(params, n), rep)
    sample = monte_carlo(params, n, reps, seed, plan, thread_count=THREADS)
    return params, plan, sample


class TestCriterion01MomentOracles:
    def test_moment_oracle_suite(self, moment_grid):
        """mu1/mu2/mean/var/centering vs quadrature, rel err < 1e-8, < 10 s."""
        t0 = time.time()
        worst = 0.0
        checks = 0
        for s in (0.25, 0.5, 1.0, 1.5, 2.0, 2.5):
            for lam in (0.5, 1.0, 2.0):
                worst = max(worst, abs(mx.mu1(s, lam) / oracle_mu1(s, lam) - 1.0))
                checks += 1
        for alpha, m in moment_grid:
            for s in (0.5, 1.0, 2.0):
                worst = max(worst, abs(mu2(s, alpha, m) / oracle_mu2(s, alpha, m) - 1.0))
                checks += 1
            params = ModelParams(alpha=alpha, lam=1.3, gamma1=1.0, gamma2=1.0)
            inst = InstanceParams(n=1000, eps_n=0.05, m_n=m)
            worst = max(worst, abs(mean_z(params, inst) / oracle_mean_z(1.3, alpha, 0.05, m) - 1.0))
            worst = max(worst, abs(var_z(params, inst) / oracle_var_z(1.3, alpha, 0.05, m) - 1.0))
            beta = 0.7 * m + 1.0
            ours = mx.centering_a_n(params, inst, beta)
            theirs = oracle_centering(1.3, alpha, 0.05, m, 1000, beta)
            worst = max(worst, abs(ours / theirs - 1.0))
            checks += 3
        elapsed = time.time() - t0
        ok = worst < 1e-8 and elapsed < 10.0
        report("C01 moment-oracles", ok, f"{checks} checks, worst rel err {worst:.2e}, {elapsed:.1f}s")
        assert worst < 1e-8
        assert elapsed < 10.0


class TestCriterion02PhaseDiagram:
    REQUIRED_CONTACTS = {
        frozenset(p) for p in [(1, 2), (2, 3), (3, 4), (4, 6), (2, 6), (1, 6), (1, 5)]
    }
    FORBIDDEN_CONTACTS = {
        frozenset(p) for p in [(1, 3), (1, 4), (2, 5), (3, 5), (3, 6), (5, 6)]
    }

    def test_zone_map_structure(self):
        """Six zones, Figure-style neighbor relations, spot checks, < 1 s."""
        t0 = time.time()
        values = [0.05 + i * 0.05 for i in range(60)]
        grid = {}
        for i, g1 in enumerate(values):
            for j, g2 in enumerate(values):
                r = classify(0.5, g1, g2)
                grid[(i, j)] = r.zone if r.zone is not None else 0
        zones = {z for z in grid.values() if z != 0}
        contacts = set()
        for (i, j), z in grid.items():
            for di, dj in ((1, 0), (0, 1)):
                other = grid.get((i + di, j + dj))
                if other and z and other != z:
                    contacts.add(frozenset((z, other)))
        # zones 4 and 5 meet only across the lln boundary row gamma2 = 1 - alpha
        sandwich = any(
            grid[(i, j)] == 5 and grid.get((i, j + 1)) == 0 and grid.get((i, j + 2)) == 4
            for (i, j) in grid
        )
        elapsed = time.time() - t0

        spots = [
            classify(0.5, 1.0, 2.0).zone == 1,
            classify(0.5, 2.0, 0.6).zone == 4,
            classify(0.5, 2.0, 0.3).zone == 5,
            classify(0.5, 0.6, 0.72).zone == 6,
            classify(0.5, 1.0, 1.5).fluctuation is mx.Fluctuation.BOUNDARY,
            classify(1.5, 2.0, 0.5).fluctuation is mx.Fluctuation.STABLE
            and classify(1.5, 2.0, 0.5).lln is mx.Lln.FULL
            and classify(1.5, 2.0, 0.5).zone is None,
        ]
        ok = (
            zones == {1, 2, 3, 4, 5, 6}
            and self.REQUIRED_CONTACTS <= contacts
            and not (self.FORBIDDEN_CONTACTS & contacts)
            and sandwich
            and all(spots)
            and elapsed < 1.0
        )
        report(
            "C02 phase-diagram", ok,
            f"zones {sorted(zones)}, contacts {len(contacts)}, {elapsed:.2f}s",
        )
        assert zones == {1, 2, 3, 4, 5, 6}
        assert self.REQUIRED_CONTACTS <= contacts
        assert not (self.FORBIDDEN_CONTACTS & contacts)
        assert sandwich
        assert all(spots)
        assert elapsed < 1.0


class TestCriterion03Zone1Clt:
    def test_full_clt(self):
        """Zone 1: one-sample KS vs N(0,1) < 0.06 at n=1e5, 1000 reps."""
        t0 = time.time()
        _, _, sample = simulate(0.5, 1.0, 1.0, 2.0, 10**5, 1000, seed=42)
        result = ks_one_sample(np.sort(sample.values), ndtr, 0.01)
        mean = float(np.mean(sample.values))
        elapsed = time.time() - t0
        ok = result.statistic < 0.06 and abs(mean) < 4.0 / math.sqrt(1000)
        report("C03 zone1-clt", ok,
               f"KS {result.statistic:.4f} < 0.06, mean {mean:+.4f}, {elapsed:.0f}s")
        assert result.statistic < 0.06
        assert abs(mean) < 4.0 / math.sqrt(1000)
        assert elapsed < 120.0


class TestCriterion04Zone2LightClt:
    def test_light_normalization_passes(self):
        """Zone 2: light-part normalization gives KS vs N(0,1) < 0.06."""
        _, _, sample = simulate(0.5, 1.0, 1.0, 1.3, 10**5, 1000, seed=42)
        result = ks_one_sample(np.sort(sample.values), ndtr, 0.01)
        report("C04a zone2-light-clt", result.statistic < 0.06,
               f"KS {result.statistic:.4f} < 0.06")
        assert result.statistic < 0.06

    def test_full_variance_normalization_fails_by_0_2(self):
        """Rescaling the same sample by the full mixture deviation must push
        the KS statistic beyond 0.2.

        The rescaled statistic converges to N(0, VarX/VarZ); at n = 1e5 the
        variance ratio VarZ/VarX is 4.34, whose KS distance to N(0,1) is
        0.17, and the simulated value lands near 0.19.  The KS distance
        between N(0, 1/r) and N(0, 1) reaches 0.2 at r = 5.80, and this
        point's ratio, about 1 + n**0.2 * alpha/(2-alpha), reaches 5.80 only
        near n = 6.1e5.  The KS test itself fails resoundingly (0.19 >>
        0.0515 critical), but this pinned magnitude is not attainable at
        n = 1e5, so this check fails honestly.
        """
        params, _, sample = simulate(0.5, 1.0, 1.0, 1.3, 10**5, 1000, seed=42)
        inst = derive_instance(params, 10**5)
        ratio = math.sqrt((1.0 / params.lam**2) / var_z(params, inst))
        rescaled = np.sort(sample.values * ratio)
        result = ks_one_sample(rescaled, ndtr, 0.01)
        ok = result.statistic > 0.2
        report("C04b zone2-wrong-scale", ok,
               f"KS {result.statistic:.4f}, pinned bound > 0.2, test rejects at 1%: {not result.passed}")
        assert not result.passed  # the normal fit is decisively rejected
        assert result.statistic > 0.2


class TestCriterion05StableZeroShift:
    def test_zone4_two_sample_and_ecf(self):
        """Zone 4: statistic vs Kanter reference (scale Gamma(1/2)^2 = pi)."""
        t0 = time.time()
        params, plan, sample = simulate(0.5, 1.0, 2.0, 0.6, 10**5, 1000, seed=42)
        assert not plan.stable_compensated
        # reference scale: (Gamma(1 - alpha) * tail_const)**(1/alpha) = pi
        assert (math.gamma(0.5)) ** 2 == pytest.approx(math.pi, rel=1e-12)
        ref_rng = RngStream(substream_seed(42 ^ 0x9E3779B97F4A7C15, 10**5))
        reference = sample_stable(ref_rng, plan.stable_spec, False, 1000)
        ks = ks_two_sample(sample.values, reference, 0.01)
        grid = np.linspace(-2.0, 2.0, 41)
        ecf = ecf_distance(
            sample.values, lambda u: char_exponent(u, plan.stable_spec, False), grid
        )
        elapsed = time.time() - t0
        ok = ks.statistic < 0.10 and ecf < 0.1
        report("C05 zone4-stable", ok,
               f"KS2 {ks.statistic:.4f} < 0.10, ecf {ecf:.4f} < 0.1, {elapsed:.0f}s")
        assert ks.statistic < 0.10
        assert ecf < 0.1


class TestCriterion06StableCompensated:
    def test_zone5_two_sample(self):
        """Zone 5: n=1e6 statistic vs compensated reference (shift -1)."""
        t0 = time.time()
        params, plan, sample = simulate(0.5, 1.0, 2.0, 0.3, 10**6, 500, seed=42)
        assert plan.stable_compensated
        reference = sample_stable(RngStream(99), plan.stable_spec, True, 500)
        assert reference.min() > -1.0 - 1e-9
        ks = ks_two_sample(sample.values, reference, 0.01)
        elapsed = time.time() - t0
        ok = ks.statistic < 0.12
        report("C06 zone5-stable", ok, f"KS2 {ks.statistic:.4f} < 0.12, {elapsed:.0f}s")
        assert ks.statistic < 0.12


class TestCriterion07AlphaAboveOne:
    def test_stable_claim_in_light_dominated_window(self):
        """alpha=1.5, gamma1=2, gamma2=0.5: stable scaling vs the calibrated
        spectrally positive reference.

        At this point the light component fluctuates at scale sqrt(n Var X) =
        10 * n**(1/3), i.e. ten times the claimed stable scale at n = 1e6, and
        the normalized statistic is bulk-normal with sd ~ 10 instead of a
        scale-1.85 stable law; the KS distance sits near 0.3 and GROWS with n
        (the gap closes only when gamma2 < 1 - alpha/2).  The claimed stable
        limit is contradicted by the simulation here, so this check fails
        honestly at its stated threshold.
        """
        t0 = time.time()
        params, plan, sample = simulate(1.5, 1.0, 2.0, 0.5, 10**6, 500, seed=42)
        reference = sample_stable(RngStream(77), plan.stable_spec, True, 500)
        ks = ks_two_sample(sample.values, reference, 0.01)
        elapsed = time.time() - t0
        ok = ks.statistic < 0.12
        report("C07a alpha1.5-stable", ok,
               f"KS2 {ks.statistic:.4f}, pinned bound < 0.12, sim sd {np.std(sample.values):.1f} "
               f"vs ref sd {np.std(reference):.1f}, {elapsed:.0f}s")
        assert ks.statistic < 0.12

    def test_clt_region(self):
        """alpha=1.5, gamma1=1, gamma2=1: KS vs N(0,1) < 0.07."""
        t0 = time.time()
        _, _, sample = simulate(1.5, 1.0, 1.0, 1.0, 10**6, 500, seed=42)
        result = ks_one_sample(np.sort(sample.values), ndtr, 0.01)
        elapsed = time.time() - t0
        ok = result.statistic < 0.07
        report("C07b alpha1.5-clt", ok, f"KS {result.statistic:.4f} < 0.07, {elapsed:.0f}s")
        assert result.statistic < 0.07


class TestCriterion08LlnLadders:
    LADDER = [10**4, 10**5, 10**6]

    def test_a_full_mean_alpha_above_one(self):
        params = ModelParams(alpha=1.5, lam=1.0, gamma1=1.0, gamma2=0.5)
        rungs = lln_ratio_check(params, self.LADDER, 200, 42, "full_mean", thread_count=THREADS)
        fractions = [r.fraction_within for r in rungs]
        ok = all(b >= a for a, b in zip(fractions, fractions[1:])) and fractions[-1] >= 0.95
        report("C08a lln-full-alpha1.5", ok, f"fractions {fractions}")
        assert all(b >= a for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] >= 0.95

    def test_b_light_mean_zone4(self):
        """Zone 4 light-mean ratios: coverage of 1 +- 0.05 must reach 0.95.

        The ratio excess is n**((1-gamma2)/alpha - 1) = n**-0.2 times a
        one-sided-stable factor whose 95th percentile is ~400 (the Levy law
        P95 satisfies erfc(sqrt(pi)/(2 sqrt(x))) = 0.95 at x = 400), so 0.95
        coverage needs n**0.2 > 8000/0.05, i.e. n beyond 1e19.  Coverage at
        n = 1e6 is ~0.18.  The convergence itself is real and the observed
        coverage does increase along the ladder, but the 0.95 top-rung target
        cannot be met at any feasible n, so this check fails honestly.
        """
        params = ModelParams(alpha=0.5, lam=1.0, gamma1=2.0, gamma2=0.6)
        rungs = lln_ratio_check(params, self.LADDER, 200, 42, "light_mean", thread_count=THREADS)
        fractions = [r.fraction_within for r in rungs]
        monotone = all(b >= a for a, b in zip(fractions, fractions[1:]))
        ok = monotone and fractions[-1] >= 0.95
        report("C08b lln-light-zone4", ok, f"fractions {fractions} (monotone: {monotone})")
        assert monotone
        assert fractions[-1] >= 0.95

    def test_c_full_mean_zone1(self):
        params = ModelParams(alpha=0.5, lam=1.0, gamma1=1.0, gamma2=2.0)
        rungs = lln_ratio_check(params, self.LADDER, 200, 42, "full_mean", thread_count=THREADS)
        fractions = [r.fraction_within for r in rungs]
        ok = all(b >= a for a, b in zip(fractions, fractions[1:])) and fractions[-1] >= 0.95
        report("C08c lln-full-zone1", ok, f"fractions {fractions}")
        assert all(b >= a for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] >= 0.95


class TestCriterion09Diagnostics:
    def test_lyapounov_contrast(self):
        clt = ModelParams(alpha=0.5, lam=1.0, gamma1=1.0, gamma2=2.0)
        clt_values = [
            lyapounov_ratio(clt, derive_instance(clt, n), 0.5)
            for n in (10**3, 10**4, 10**5)
        ]
        stable = ModelParams(alpha=0.5, lam=1.0, gamma1=2.0, gamma2=0.6)
        stable_values = [
            lyapounov_ratio(stable, derive_instance(stable, n), 0.5)
            for n in (10**3, 10**4, 10**5)
        ]
        ok = (
            clt_values[0] > clt_values[1] > clt_values[2]
            and stable_values[2] >= stable_values[1]
        )
        report("C09a lyapounov", ok,
               f"clt {['%.3g' % v for v in clt_values]}, stable {['%.3g' % v for v in stable_values]}")
        assert clt_values[0] > clt_values[1] > clt_values[2]
        assert stable_values[2] >= stable_values[1]

    def test_tail_sum_levy_limit(self):
        params = ModelParams(alpha=0.5, lam=1.0, gamma1=2.0, gamma2=0.6)
        inst = derive_instance(params, 10**6)
        beta = float(10**6) ** 0.8
        gaps = []
        for x in (0.5, 1.0, 2.0):
            value = tail_sum(x, params, inst, beta)
            gaps.append(abs(value / x**-0.5 - 1.0))
        ok = max(gaps) < 0.02
        report("C09b tail-sum", ok, f"max rel gap {max(gaps):.4f} < 0.02")
        assert max(gaps) < 0.02


class TestCriterion10StableSelfValidation:
    def test_kanter_vs_levy_cdf(self):
        spec = StableLimitSpec(alpha=0.5)
        draws = np.sort(sample_stable(RngStream(101), spec, False, 2000))

        def levy_cdf(x):
            return erfc(math.sqrt(math.pi) / (2.0 * np.sqrt(np.maximum(x, 1e-300))))

        result = ks_one_sample(draws, levy_cdf, 0.01)
        report("C10a kanter-levy", result.statistic < 0.05,
               f"KS {result.statistic:.4f} < 0.05")
        assert result.statistic < 0.05

    def test_stability_property(self):
        spec = StableLimitSpec(alpha=0.5)
        rng = RngStream(333)
        k1 = sample_stable(rng, spec, False, 10**4)
        k2 = sample_stable(rng, spec, False, 10**4)
        k3 = sample_stable(rng, spec, False, 10**4)
        result = ks_two_sample((k1 + k2) / 2.0 ** (1.0 / 0.5), k3, 0.01)
        report("C10b stability", result.passed,
               f"KS2 {result.statistic:.4f} < {result.critical_value:.4f}")
        assert result.passed

    def test_exponent_closed_vs_quadrature(self):
        from test_stable_limit import quad_exponent

        worst = 0.0
        for alpha in (0.3, 0.5, 0.8, 1.2, 1.5, 1.9):
            spec = StableLimitSpec(alpha=alpha)
            for u in (-10.0, -4.0, -1.0, -0.25, 0.25, 1.0, 4.0, 10.0):
                worst = max(worst, abs(
                    char_exponent(u, spec, True) - quad_exponent(u, alpha, 1.0, True)
                ))
        report("C10c exponent", worst < 1e-6, f"worst |closed - quad| {worst:.2e}")
        assert worst < 1e-6


class TestCriterion11Determinism:
    def test_byte_identical_across_runs_and_threads(self, tmp_path):
        args = [
            "simulate", "--alpha", "0.5", "--gamma1", "2", "--gamma2", "0.6",
            "--n", "20000", "--reps", "200", "--seed", "42",
        ]
        paths = [tmp_path / name for name in ("r1.csv", "r2.csv", "t8.csv")]
        assert cli_main(args + ["--threads", "1", "--out", str(paths[0])]) == 0
        assert cli_main(args + ["--threads", "1", "--out", str(paths[1])]) == 0
        assert cli_main(args + ["--threads", "8", "--out", str(paths[2])]) == 0
        blobs = [path.read_bytes() for path in paths]
        ok = blobs[0] == blobs[1] == blobs[2]
        report("C11 determinism", ok, f"{len(blobs[0])} bytes, reruns and threads identical")
        assert ok
