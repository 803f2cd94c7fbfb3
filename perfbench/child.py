"""One benchmark job, run in a fresh interpreter.

Usage: python3 perfbench/child.py '<job as JSON>'

The job's ``kind`` is one of:

cli     run ``mixlim.cli.main(argv)`` once, as one ``mixlim`` command would;
sweep   one interpreter scripting the screening sweep through the library;
canary  pin the raw row-sum bytes of ``monte_carlo`` (untimed check);
probe   thread scaling and allocation peak of one ``monte_carlo`` call.

A job with a ``trace`` path wraps the library's public functions (see
tracer.py) and writes its spans there at the end.  The last line printed is
the job's result as JSON; ``campaign_s`` excludes interpreter start-up and
the import of mixlim.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import scipy

import mixlim
import mixlim.cli
import tracer as tracing

# Raw row sums (identity plan) of fixed configurations at the seed commit,
# with their exact heavy-draw totals.  The per-draw sampler must stay
# bit-identical, at every thread count.
CANARIES = (
    # zone 5 (alpha=0.5, gamma1=2, gamma2=0.3): about 1.9% heavy draws, and
    # n > 2**19 so every row spans two sampler chunks
    {"params": (0.5, 1.0, 2.0, 0.3), "n": 600_000, "replicates": 6, "seed": 20141020,
     "sha256": "b658e1c5619eb5881d8f104e7d8c5aeba3b7f5defb529f30650e8d3ae9f0cc5d",
     "heavy_draws": 66742},
    # zone 1 (alpha=0.5, gamma1=1, gamma2=2): eps_n = 1e-10, light branch only
    {"params": (0.5, 1.0, 1.0, 2.0), "n": 100_000, "replicates": 8, "seed": 19970101,
     "sha256": "a9fcfd541e6740f168a8403987a782ca18946beb65f79bb3623ec6c97af9bf6a",
     "heavy_draws": 0},
)

# Screening sweep: the README's gamma grid 0.05:3:0.05, as typed decimals.
SWEEP_GRID = [k / 20 for k in range(1, 61)]
SWEEP_ALPHAS = (0.5, 1.5)
SWEEP_LADDER = (1000, 3000, 10000)
SWEEP_REPLICATES = 1000
LLN_MIN_COVERAGE = 0.95  # the top-rung coverage `mixlim verify` requires


def _meter_monte_carlo(counters, args, result, elapsed_ns):
    replicates = args["replicates"]
    counters["samplers.draws"] += args["n"] * replicates
    counters["samplers.replicates"] += replicates
    counters["samplers.heavy_draws"] += round(result.heavy_count_mean * replicates)


def _meter_sample_stable(counters, args, result, elapsed_ns):
    alpha = args["spec"].alpha
    branch = "a_lt1" if alpha < 1.0 else "a_gt1" if alpha > 1.0 else "a_eq1"
    key = f"stable_limit.sample_stable.{branch}"
    counters[key + ".variates"] += 1 if args["size"] is None else args["size"]
    counters[key + ".ns"] += elapsed_ns


def _meter_cdf(counters, args, result, elapsed_ns):
    # cdf of an array recurses through the module global, one call per point
    if np.ndim(args["x"]) == 0:
        counters["stable_limit.cdf.points"] += 1


METERS = {
    "samplers.monte_carlo": _meter_monte_carlo,
    "stable_limit.sample_stable": _meter_sample_stable,
    "stable_limit.cdf": _meter_cdf,
}

# Called per replicate on the pool threads: counted, not spanned.
COUNTED = {"samplers.substream_seed": None}


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def run_cli(job, tracer):
    main = mixlim.cli.main
    if tracer is not None:
        main = tracer.wrap("cli.main", main)
    start = time.perf_counter()
    rc = main(job["argv"])
    return {"rc": rc, "campaign_s": time.perf_counter() - start}


def sweep_candidates():
    """Interior grid points, in grid order.

    Stable points need a stable scale n**((1-gamma2)/alpha) above 1, the
    documented domain of ``collect_diagnostics``; at alpha >= 1 the
    classifier also calls points with gamma2 >= 1 stable, where it is not.
    """
    points = []
    for alpha in SWEEP_ALPHAS:
        for gamma1 in SWEEP_GRID:
            for gamma2 in SWEEP_GRID:
                report = mixlim.classify(alpha, gamma1, gamma2)
                if (report.fluctuation is mixlim.Fluctuation.BOUNDARY
                        or report.lln is mixlim.Lln.BOUNDARY):
                    continue
                if report.fluctuation is mixlim.Fluctuation.STABLE and gamma2 >= 1.0:
                    continue
                points.append((alpha, gamma1, gamma2, report))
    return points


def sweep_point(point, seed, threads) -> bool:
    """Screen one point; returns the LLN verdict, raises when an output is wrong."""
    alpha, gamma1, gamma2, report = point
    params = mixlim.ModelParams(alpha=alpha, lam=1.0, gamma1=gamma1, gamma2=gamma2)
    inst = mixlim.derive_instance(params, SWEEP_LADDER[-1])
    mean, var = mixlim.mean_z(params, inst), mixlim.var_z(params, inst)
    plan = mixlim.normalization_plan(params, inst, report)
    diag = mixlim.collect_diagnostics(params, inst, plan.scale)
    mode = "light_mean" if report.lln is mixlim.Lln.LIGHT_PART else "full_mean"
    rungs = mixlim.lln_ratio_check(
        params, SWEEP_LADDER, SWEEP_REPLICATES, seed, mode, thread_count=threads
    )
    if not (_finite(mean, var, plan.center, plan.scale, diag.lyapounov,
                    diag.centering_a_n, diag.truncated_var, *diag.tail_sum_values.values())
            and mean > 0.0 and var > 0.0):
        raise ArithmeticError(f"non-finite moment or diagnostic at {point[:3]}")
    if len(rungs) != len(SWEEP_LADDER):
        raise ValueError(f"{len(rungs)} rungs for a ladder of {len(SWEEP_LADDER)}")
    for rung in rungs:
        if not (_finite(rung.q05, rung.median, rung.q95, rung.fraction_within)
                and rung.q05 <= rung.median <= rung.q95
                and 0.0 <= rung.fraction_within <= 1.0):
            raise ArithmeticError(f"bad LLN rung at {point[:3]}: {rung}")
    return rungs[-1].fraction_within >= LLN_MIN_COVERAGE


def run_sweep(job, tracer):
    def traced(name, fn):
        return fn if tracer is None else tracer.wrap(name, fn)

    rng = random.Random(f"sweep:{job['seed']}")
    candidates = traced("sweep.grid", sweep_candidates)()
    # the same number of points at each alpha: per-draw costs differ by alpha
    points = []
    for alpha in SWEEP_ALPHAS:
        at_alpha = [p for p in candidates if p[0] == alpha]
        points += rng.sample(at_alpha, job["points"] // len(SWEEP_ALPHAS))
    screen = traced("sweep.point", sweep_point)
    ops = []
    for point in points:
        seed = rng.getrandbits(31)
        start = time.perf_counter()
        try:
            verdict, error = screen(point, seed, job["threads"]), None
        except Exception as exc:  # a library call raised: the point failed
            verdict, error = None, f"{point[:3]}: {exc!r}"
        ops.append({"time_s": time.perf_counter() - start, "verdict": verdict,
                    "error": error})
    draws = len(points) * SWEEP_REPLICATES * sum(SWEEP_LADDER)
    return {"ops": ops, "draws": draws}


def run_canary(job, tracer):
    identity = mixlim.NormalizationPlan(center=0.0, scale=1.0, limit="std_normal")
    problems = []
    for canary in CANARIES:
        alpha, lam, gamma1, gamma2 = canary["params"]
        params = mixlim.ModelParams(alpha=alpha, lam=lam, gamma1=gamma1, gamma2=gamma2)
        for threads in (1, 2):
            sample = mixlim.monte_carlo(params, canary["n"], canary["replicates"],
                                        canary["seed"], identity, threads)
            digest = hashlib.sha256(sample.values.astype("<f8").tobytes()).hexdigest()
            heavy = round(sample.heavy_count_mean * canary["replicates"])
            if digest != canary["sha256"] or heavy != canary["heavy_draws"]:
                problems.append(f"{canary['params']} n={canary['n']} threads={threads}: "
                                f"sha256 {digest}, {heavy} heavy draws")
    return {"problems": problems, "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__}


def run_probe(job, tracer):
    """Single- and two-thread time of one campaign's monte_carlo call, and the
    tracemalloc peak of a single-thread call whose rows span two chunks."""
    alpha, gamma1, gamma2 = job["point"]
    params = mixlim.ModelParams(alpha=alpha, lam=1.0, gamma1=gamma1, gamma2=gamma2)
    n, replicates = job["n"], job["replicates"]
    plan = mixlim.NormalizationPlan(center=0.0, scale=1.0, limit="std_normal")
    times = {1: [], 2: []}
    for threads in times:  # untimed: first-touch page faults and pool start-up
        mixlim.monte_carlo(params, n, replicates, 0, plan, threads)
    for repeat in range(job["repeats"]):
        for threads in ((1, 2) if repeat % 2 == 0 else (2, 1)):
            start = time.perf_counter()
            mixlim.monte_carlo(params, n, replicates, repeat, plan, threads)
            times[threads].append(time.perf_counter() - start)
    one, two = statistics.median(times[1]), statistics.median(times[2])
    tracemalloc.start()
    mixlim.monte_carlo(params, 1_000_000, 2, 0, plan, 1)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"ns_per_draw_1t": one / (n * replicates) * 1e9, "speedup_2t": one / two,
            "peak_alloc_mb": peak / 2**20}


RUNNERS = {"cli": run_cli, "sweep": run_sweep, "canary": run_canary, "probe": run_probe}


def main() -> None:
    job = json.loads(sys.argv[1])
    src = Path(job["src"]).resolve()
    if src not in Path(mixlim.__file__).resolve().parents:
        sys.exit(f"mixlim imported from {mixlim.__file__}, not from {src}")
    tracer = None
    if job.get("trace"):
        tracer = tracing.Tracer()
        tracer.install(mixlim, METERS, COUNTED)
        mixlim.RngStream.uniforms = tracer.count(
            "samplers.uniforms", mixlim.RngStream.uniforms, lambda stream, count: count)
    result = RUNNERS[job["kind"]](job, tracer)
    if tracer is not None:
        tracer.dump(job["trace"])
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
