"""Command-line surface: classify, moments, simulate, verify, phase-grid.

Exit codes: 0 success, 1 usage or validation error, 2 boundary point (no
limit statement applies), 3 statistical verification failure, 4 I/O failure.

CSV outputs carry a header row, use LF line endings, and serialize floats
with 17 significant digits so byte-level determinism is testable.  JSON
outputs carry a ``"schema": 1`` field.  The environment variable
MIXLIM_THREADS supplies the default for --threads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np
from scipy.special import ndtr

from . import __version__
from .model import (
    ModelParams,
    derive_instance,
    mean_z,
    mean_z_asymptotic,
    mu1,
    mu2,
    var_z,
    var_z_asymptotic,
)
from .regimes import Fluctuation, Lln, NormalizationPlan, classify, normalization_plan
from .samplers import RngStream, monte_carlo, substream_seed
from .stable_limit import char_exponent, sample_stable
from .stats import ecf_distance, ks_one_sample, ks_two_sample, lln_ratio_check

__all__ = ["main", "console_main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BOUNDARY = 2
EXIT_STAT_FAIL = 3
EXIT_IO = 4

# Seed salt for the reference-law draws used by the stable verification test.
_REFERENCE_SALT = 0x9E3779B97F4A7C15

_VERSION_STRING = f"mixlim-{__version__}"


class _CliError(Exception):
    """Validation failure that maps to exit code 1."""


class _ArgumentParser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _CliError(message)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _default_threads() -> int:
    raw = os.environ.get("MIXLIM_THREADS", "")
    try:
        value = int(raw)
    except ValueError:
        return 1
    return value if value >= 1 else 1


def _validated(args) -> ModelParams:
    """The model of a moments, simulate or verify command, after checking its options."""
    params = ModelParams(alpha=args.alpha, lam=args.lam, gamma1=args.gamma1, gamma2=args.gamma2)
    ladder = args.n_ladder if hasattr(args, "n_ladder") else [args.n]
    for ok, message in (
        (len(ladder) > 0, "at least one row size n is required"),
        (all(n >= 2 for n in ladder), "row sizes must be >= 2"),
        (all(b > a for a, b in zip(ladder, ladder[1:])), "row sizes must be strictly increasing"),
        (getattr(args, "reps", 1) >= 1, "replicates must be >= 1"),
        (getattr(args, "threads", 1) >= 1, "threads must be >= 1"),
        (0.0 < getattr(args, "level", 0.01) < 1.0, "level must be in (0, 1)"),
        (getattr(args, "delta", 0.05) > 0.0, "delta must be positive"),
    ):
        if not ok:
            raise ValueError(message)
    return params


def _report_to_dict(report) -> dict:
    return {
        "fluctuation": report.fluctuation.value,
        "stable_branch": report.stable_branch.value if report.stable_branch else None,
        "lln": report.lln.value,
        "zone": report.zone,
    }


def _plan_to_dict(plan: NormalizationPlan) -> dict:
    stable = None
    if plan.stable_spec is not None:
        stable = {
            "alpha": plan.stable_spec.alpha,
            "tail_const": plan.stable_spec.tail_const,
            "shift": plan.stable_spec.shift,
            "compensated": plan.stable_compensated,
        }
    return {"center": plan.center, "scale": plan.scale, "limit": plan.limit, "stable": stable}


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def _cmd_classify(args) -> int:
    report = classify(args.alpha, args.gamma1, args.gamma2)
    if args.format == "json":
        payload = {"schema": 1, **_report_to_dict(report)}
        print(json.dumps(payload))
    else:
        print(f"fluctuation: {report.fluctuation.value}")
        if report.stable_branch is not None:
            print(f"stable_branch: {report.stable_branch.value}")
        print(f"lln: {report.lln.value}")
        print(f"zone: {report.zone if report.zone is not None else 'none'}")
    boundary = report.fluctuation is Fluctuation.BOUNDARY or report.lln is Lln.BOUNDARY
    return EXIT_BOUNDARY if boundary else EXIT_OK


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def _cmd_moments(args) -> int:
    params = _validated(args)
    inst = derive_instance(params, args.n)
    payload = {
        "schema": 1,
        "version": _VERSION_STRING,
        "n": inst.n,
        "eps_n": inst.eps_n,
        "m_n": inst.m_n,
        "mu1_1": mu1(1.0, params.lam),
        "mu2_1": mu2(1.0, params.alpha, inst.m_n),
        "mean_z": mean_z(params, inst),
        "var_z": var_z(params, inst),
        "mean_z_asymptotic": mean_z_asymptotic(params, args.n),
        "var_z_asymptotic": var_z_asymptotic(params, args.n),
    }
    _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    params = _validated(args)
    report = classify(params.alpha, params.gamma1, params.gamma2)
    if report.fluctuation is Fluctuation.BOUNDARY:
        print("error: boundary point, no limit statement applies", file=sys.stderr)
        return EXIT_BOUNDARY
    plan = normalization_plan(params, derive_instance(params, args.n), report)
    sample = monte_carlo(params, args.n, args.reps, args.seed, plan, args.threads)

    lines = ["replicate,value"]
    lines.extend(f"{k},{_fmt(v)}" for k, v in enumerate(sample.values))
    body = "\n".join(lines) + "\n"
    metadata = {
        "schema": 1,
        "version": _VERSION_STRING,
        "config": {
            "alpha": params.alpha, "lambda": params.lam,
            "gamma1": params.gamma1, "gamma2": params.gamma2,
            "n": args.n, "replicates": args.reps, "seed": args.seed,
            "threads": args.threads, "out": args.out, "format": "csv",
        },
        "report": _report_to_dict(report),
        "plan": _plan_to_dict(plan),
        "heavy_count_mean": sample.heavy_count_mean,
    }
    _write_text(args.out, body)
    if args.out is not None:
        _write_text(args.out + ".meta.json", json.dumps(metadata, indent=2) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_rung(params, n, args, report, test: str) -> dict:
    """One rung: the normalized sums against N(0, 1) (one-sample KS) or against
    reference draws of the plan's stable law (two-sample KS, plus the ECF).

    A forced-normal check at a stable point keeps the stable normalization and
    simply tests it against the normal law.
    """
    plan = normalization_plan(params, derive_instance(params, n), report)
    sample = monte_carlo(params, n, args.reps, args.seed, plan, args.threads)
    if test == "normal":
        result = ks_one_sample(np.sort(sample.values), ndtr, args.level)
    else:
        ref_rng = RngStream(substream_seed(args.seed ^ _REFERENCE_SALT, n))
        reference = sample_stable(ref_rng, plan.stable_spec, plan.stable_compensated, args.reps)
        result = ks_two_sample(sample.values, reference, args.level)
    rung = {
        "n": n,
        "test": test,
        "statistic": result.statistic,
        "critical_value": result.critical_value,
        "level": args.level,
        "passed": result.passed,
    }
    if test == "stable":
        rung["ecf_distance"] = ecf_distance(
            sample.values,
            lambda u: char_exponent(u, plan.stable_spec, plan.stable_compensated),
            np.linspace(-2.0, 2.0, 41),
        )
    return rung


def _verify_lln(params, args, mode: str) -> list[dict]:
    min_coverage = 0.95
    rungs = lln_ratio_check(
        params, args.n_ladder, args.reps, args.seed, mode,
        delta=args.delta, thread_count=args.threads,
    )
    return [
        {
            "n": rung.n,
            "test": f"lln_{'full' if mode == 'full_mean' else 'light'}",
            "statistic": rung.fraction_within,
            "critical_value": min_coverage,
            "level": args.level,
            "passed": rung.fraction_within >= min_coverage,
            "median": rung.median,
            "q05": rung.q05,
            "q95": rung.q95,
            "delta": rung.delta,
        }
        for rung in rungs
    ]


def _cmd_verify(args) -> int:
    params = _validated(args)
    if args.reps < 100:
        # Asymptotic critical values are meaningless for tiny samples; no
        # pass/fail verdict is issued below 100 replicates.
        print("error: verify requires at least 100 replicates per rung", file=sys.stderr)
        return EXIT_USAGE
    report = classify(params.alpha, params.gamma1, params.gamma2)
    forced = args.force_test
    # The LLN ladders need no normalization plan, so only they run at a boundary.
    lln_mode = {"lln-full": "full_mean", "lln-light": "light_mean"}.get(forced)
    if lln_mode is None and report.fluctuation is Fluctuation.BOUNDARY:
        print("error: boundary point, no limit statement applies", file=sys.stderr)
        return EXIT_BOUNDARY

    if lln_mode is not None:
        rungs = _verify_lln(params, args, lln_mode)
    else:
        # normalization_plan gives a stable plan exactly at the STABLE class
        stable = report.fluctuation is Fluctuation.STABLE
        test = forced or ("stable" if stable else "normal")
        if test == "stable" and not stable:
            print(
                "error: stable test requested but the regime's limit "
                "is the normal law; use --force-test normal",
                file=sys.stderr,
            )
            return EXIT_USAGE
        rungs = [_verify_rung(params, n, args, report, test) for n in args.n_ladder]

    payload = {
        "schema": 1,
        "version": _VERSION_STRING,
        "config": {
            "alpha": params.alpha, "lambda": params.lam,
            "gamma1": params.gamma1, "gamma2": params.gamma2,
            "n_ladder": list(args.n_ladder), "replicates": args.reps,
            "seed": args.seed, "threads": args.threads, "level": args.level,
            "delta": args.delta,
        },
        "report": _report_to_dict(report),
        "test": rungs[0]["test"],
        "rungs": rungs,
        "passed": bool(rungs[-1]["passed"]),
    }
    _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK if payload["passed"] else EXIT_STAT_FAIL


# ---------------------------------------------------------------------------
# phase-grid
# ---------------------------------------------------------------------------

def _parse_range(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise _CliError(f"range must look like a:b:step, got {text!r}")
    try:
        a, b, step = (float(p) for p in parts)
    except ValueError as exc:
        raise _CliError(f"range must be numeric, got {text!r}") from exc
    if step <= 0.0 or a <= 0.0 or b < a or step > b - a:
        raise _CliError(f"empty or invalid range {text!r}")
    count = int(math.floor((b - a) / step + 1e-9)) + 1
    return [a + i * step for i in range(count)]


def _cmd_phase_grid(args) -> int:
    gamma1_values = _parse_range(args.gamma1)
    gamma2_values = _parse_range(args.gamma2)

    lines = ["gamma1,gamma2,zone,fluctuation,lln"]
    for g1 in gamma1_values:
        for g2 in gamma2_values:
            report = classify(args.alpha, g1, g2)
            zone = report.zone if report.zone is not None else 0
            lines.append(
                f"{_fmt(g1)},{_fmt(g2)},{zone},"
                f"{report.fluctuation.value},{report.lln.value}"
            )
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_model_args(parser, with_lambda=True):
    parser.add_argument("--alpha", type=float, required=True, help="heavy-tail index in (0, 2)")
    parser.add_argument("--gamma1", type=float, required=True, help="truncation exponent > 0")
    parser.add_argument("--gamma2", type=float, required=True, help="mixing exponent > 0")
    if with_lambda:
        parser.add_argument(
            "--lambda", dest="lam", type=float, default=1.0,
            help="light-component rate (default 1)",
        )


def _add_campaign_args(parser):
    parser.add_argument("--reps", type=int, default=1000, help="replicates per rung")
    parser.add_argument("--seed", type=int, default=42, help="master seed")
    parser.add_argument(
        "--threads", type=int, default=_default_threads(),
        help="worker threads (default MIXLIM_THREADS or 1)",
    )


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="mixlim",
        description="Simulate and verify limit theorems for exponential / truncated-Pareto mixture sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify a parameter point")
    _add_model_args(p_classify, with_lambda=False)
    p_classify.add_argument("--format", choices=("text", "json"), default="text")
    p_classify.set_defaults(func=_cmd_classify)

    p_moments = sub.add_parser("moments", help="exact and asymptotic moment report")
    _add_model_args(p_moments)
    p_moments.add_argument("--n", type=int, required=True, help="row size (>= 2)")
    p_moments.add_argument("--out", default=None, help="output path (default stdout)")
    p_moments.set_defaults(func=_cmd_moments)

    p_sim = sub.add_parser("simulate", help="simulate normalized sums to CSV")
    _add_model_args(p_sim)
    p_sim.add_argument("--n", type=int, required=True, help="row size (>= 2)")
    _add_campaign_args(p_sim)
    p_sim.add_argument("--out", required=True, help="CSV output path; metadata goes to <out>.meta.json")
    p_sim.set_defaults(func=_cmd_simulate)

    p_verify = sub.add_parser("verify", help="run the regime-appropriate statistical test")
    _add_model_args(p_verify)
    p_verify.add_argument(
        "--n-ladder", required=True,
        help="comma-separated increasing row sizes, e.g. 10000,100000",
    )
    _add_campaign_args(p_verify)
    p_verify.add_argument("--level", type=float, default=0.01, help="test level (default 0.01)")
    p_verify.add_argument(
        "--delta", type=float, default=0.05,
        help="LLN relative band half-width (default 0.05)",
    )
    p_verify.add_argument(
        "--force-test", choices=("normal", "stable", "lln-full", "lln-light"),
        default=None, help="override the automatic test selection",
    )
    p_verify.add_argument("--out", default=None, help="JSON report path (default stdout)")
    p_verify.set_defaults(func=_cmd_verify)

    p_grid = sub.add_parser("phase-grid", help="emit the zone map over a gamma grid")
    p_grid.add_argument("--alpha", type=float, required=True)
    p_grid.add_argument("--gamma1", required=True, help="range a:b:step")
    p_grid.add_argument("--gamma2", required=True, help="range a:b:step")
    p_grid.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p_grid.set_defaults(func=_cmd_phase_grid)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if hasattr(args, "n_ladder") and isinstance(args.n_ladder, str):
            args.n_ladder = [int(part) for part in args.n_ladder.split(",") if part]
    except ValueError:
        print("error: --n-ladder must be comma-separated integers", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (_CliError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # only _write_text raises it
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO


def console_main() -> None:
    sys.exit(main())
