"""The mixlim benchmark: verdict campaigns timed end to end, layers from a traced run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload long-rows --seed 1 --seconds 35 --trace 0

Each workload is a closed loop with one client: a campaign starts only after
the previous one has finished.  Campaigns use as many threads as the process
may run on (nproc).  A CLI campaign is one ``mixlim verify`` or ``mixlim
simulate`` call in a fresh interpreter, so per-process caches cost what they
cost users.  The workload's campaign list is one cycle; cycles repeat, each
with fresh seeds drawn from ``--seed``, while another cycle still fits in
``--seconds``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one cycle
untraced and the same cycle traced, and prints the per-layer metrics.  Every
run first checks the canary digests.  Human-readable lines come first; the
last line is the result as JSON.  See NOTES.md for the workloads' reasons.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 7
EXIT_PASS, EXIT_STAT_FAIL = 0, 3  # `mixlim verify` verdict exit codes


# ---------------------------------------------------------------------------
# workloads: (label, alpha, gamma1, gamma2) points and campaign lists
# ---------------------------------------------------------------------------

LONG_ROWS_LADDER = [100_000, 1_000_000]
LONG_ROWS_REPLICATES = 200
LONG_ROWS_POINTS = [
    ("zone1", 0.5, 1.0, 2.0),     # heavy branch never fires
    ("zone5", 0.5, 2.0, 0.3),     # ~1.6% of draws take the Pareto transform
    ("clt-a1.5", 1.5, 1.0, 1.0),
]
STABLE_REF_LADDER = [10_000, 30_000]
STABLE_REF_REPLICATES = 2000
STABLE_REF_POINTS = [
    ("zone4", 0.5, 2.0, 0.6),
    ("zone5", 0.5, 2.0, 0.3),
    ("a1.5-window", 1.5, 2.0, 0.2),
    ("a1-g0.3", 1.0, 2.0, 0.3),   # fails today: alpha = 1 centering (ROADMAP item 1)
    ("a1-g0.45", 1.0, 2.0, 0.45),  # fails today: alpha = 1 centering
    ("c07a", 1.5, 2.0, 0.5),      # fails today: missing light-CLT frontier
]
SWEEP_POINTS = 100

# monte_carlo call timed at 1 and 2 threads by the traced run: one campaign's
# (point, n, replicates) per workload
SCALING_PROBES = {
    "long-rows": {"point": [0.5, 2.0, 0.3], "n": 1_000_000, "replicates": 16, "repeats": 3},
    "stable-ref": {"point": [0.5, 2.0, 0.3], "n": 30_000, "replicates": 500, "repeats": 3},
    "sweep": {"point": [0.5, 2.0, 0.3], "n": 1000, "replicates": 1000, "repeats": 5},
}


def _verify(label, point, ladder, replicates, rng, threads):
    return {"label": label, "command": "verify", "point": point, "ladder": ladder,
            "replicates": replicates, "seed": rng.getrandbits(31), "threads": threads}


def long_rows(rng, threads):
    campaigns = [_verify(label, point, LONG_ROWS_LADDER, LONG_ROWS_REPLICATES, rng, threads)
                 for label, *point in LONG_ROWS_POINTS]
    campaigns.append({"label": "zone5-csv", "command": "simulate", "point": [0.5, 2.0, 0.3],
                      "ladder": [1_000_000], "replicates": LONG_ROWS_REPLICATES,
                      "seed": rng.getrandbits(31), "threads": threads})
    return campaigns


def stable_ref(rng, threads):
    return [_verify(label, point, STABLE_REF_LADDER, STABLE_REF_REPLICATES, rng, threads)
            for label, *point in STABLE_REF_POINTS]


def sweep(rng, threads):
    return [{"label": "sweep", "command": "sweep", "points": SWEEP_POINTS,
             "seed": rng.getrandbits(31), "threads": threads}]


WORKLOADS = {"long-rows": long_rows, "stable-ref": stable_ref, "sweep": sweep}


# ---------------------------------------------------------------------------
# statistics of the harness itself
# ---------------------------------------------------------------------------

def percentile(values, q: int) -> float:
    """Nearest-rank q-th percentile: the smallest value with q% of values at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) / 100))
    return ordered[rank - 1]


def reportable(q: int, count: int) -> bool:
    """A percentile is reported only with at least ten samples beyond it."""
    return count - math.ceil(q * count / 100) >= 10


# ---------------------------------------------------------------------------
# running jobs and checking outputs
# ---------------------------------------------------------------------------

class Runner:
    """Starts child jobs in fresh interpreters, within the run's deadline."""

    def __init__(self, root: Path, work: Path, started: float):
        self.root = root
        self.work = work
        self.deadline = started + DEADLINE_S
        self.env = {k: v for k, v in os.environ.items() if k != "MIXLIM_THREADS"}
        self.env["PYTHONPATH"] = str(root / "src")

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def spawn(self, argv: list[str]):
        """Run a child to completion; (stdout, stderr, returncode) or None on timeout."""
        try:
            proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            return None
        return proc.stdout, proc.stderr, proc.returncode

    def job(self, job: dict):
        """Run child.py on ``job``; (result, error): exactly one of them is None."""
        job = dict(job, src=str(self.root / "src"))
        done = self.spawn([sys.executable, str(HERE / "child.py"), json.dumps(job)])
        if done is None:
            return None, "timed out"
        stdout, stderr, code = done
        lines = stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if code == 0 and lines else None
        except ValueError:
            result = None
        if result is None:
            return None, f"child exited {code}: {stderr.strip()[-400:]}"
        return result, None


def _argv(campaign: dict, out: Path) -> list[str]:
    alpha, gamma1, gamma2 = campaign["point"]
    argv = [campaign["command"], "--alpha", repr(alpha), "--gamma1", repr(gamma1),
            "--gamma2", repr(gamma2), "--reps", str(campaign["replicates"]),
            "--seed", str(campaign["seed"]), "--threads", str(campaign["threads"])]
    if campaign["command"] == "verify":
        return argv + ["--n-ladder", ",".join(map(str, campaign["ladder"])),
                       "--out", str(out / "report.json")]
    return argv + ["--n", str(campaign["ladder"][0]), "--out", str(out / "sums.csv")]


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def check_verify(campaign: dict, rc: int, out: Path):
    """(error or None, verdict or None) for one `mixlim verify` campaign."""
    if rc not in (EXIT_PASS, EXIT_STAT_FAIL):
        return f"exit code {rc}", None
    try:
        report = json.loads((out / "report.json").read_text())
        rungs = report["rungs"]
        passed = report["passed"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"report does not parse: {exc!r}", None
    if len(rungs) != len(campaign["ladder"]):
        return f"{len(rungs)} rungs for a ladder of {len(campaign['ladder'])}", None
    for rung in rungs:
        for key in ("statistic", "critical_value", "ecf_distance"):
            if key in rung and not _finite(rung[key]):
                return f"non-finite {key} at n={rung.get('n')}", None
    if passed is not (rc == EXIT_PASS):
        return f"exit code {rc} disagrees with verdict {passed!r}", None
    return None, passed


def check_simulate(campaign: dict, rc: int, out: Path):
    """(error or None, None) for one `mixlim simulate` campaign: no verdict."""
    if rc != EXIT_PASS:
        return f"exit code {rc}", None
    try:
        lines = (out / "sums.csv").read_text().splitlines()
        meta = json.loads((out / "sums.csv.meta.json").read_text())
        rows = [line.split(",") for line in lines[1:]]
        ids = [int(r[0]) for r in rows]
        values = [float(r[1]) for r in rows]
    except (OSError, ValueError, IndexError) as exc:
        return f"output does not parse: {exc!r}", None
    if lines[0] != "replicate,value" or ids != list(range(campaign["replicates"])):
        return f"{len(rows)} CSV rows for {campaign['replicates']} replicates", None
    if not all(math.isfinite(v) for v in values) or not _finite(meta.get("heavy_count_mean")):
        return "non-finite value in the CSV or its metadata", None
    return None, None


def _draws(campaign: dict) -> int:
    return sum(campaign["ladder"]) * campaign["replicates"]


def run_cycle(runner: Runner, campaigns: list[dict], traced: bool) -> dict:
    """Run one cycle of campaigns back to back.

    Returns wall time, one op per campaign (per point for the sweep) with its
    time, verdict and error, drawn count, peak RSS, bytes written and, when
    traced, the span summaries and counters of every process.
    """
    cycle = {"ops": [], "draws": 0, "peak_rss_mb": 0.0, "bytes_written": 0,
             "summaries": [], "counters": []}
    start = time.perf_counter()
    for index, campaign in enumerate(campaigns):
        out = runner.work / f"campaign-{index}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        spans = runner.work / f"spans-{index}.bin"
        if campaign["command"] == "sweep":
            job = {"kind": "sweep", **campaign}
        else:
            job = {"kind": "cli", "argv": _argv(campaign, out)}
        if traced:
            job["trace"] = str(spans)
        result, error = runner.job(job)
        if result is None:
            cycle["ops"].append({"time_s": None, "verdict": None,
                                 "error": f"{campaign['label']}: {error}"})
            continue
        cycle["peak_rss_mb"] = max(cycle["peak_rss_mb"], result["maxrss_mb"])
        cycle["bytes_written"] += sum(f.stat().st_size for f in out.iterdir())
        if campaign["command"] == "sweep":
            cycle["ops"] += result["ops"]
            cycle["draws"] += result["draws"]
        else:
            check = check_verify if campaign["command"] == "verify" else check_simulate
            error, verdict = check(campaign, result["rc"], out)
            cycle["ops"].append({"time_s": result["campaign_s"], "verdict": verdict,
                                 "error": error and f"{campaign['label']}: {error}",
                                 "label": campaign["label"]})
            cycle["draws"] += _draws(campaign)
        if traced:
            names, counters, rows = tracing.load(str(spans))
            cycle["summaries"].append(tracing.summarize(names, rows))
            cycle["counters"].append(counters)
            spans.unlink()
    cycle["wall_s"] = time.perf_counter() - start
    return cycle


def setup_times(runner: Runner) -> list[float]:
    """Fresh-interpreter start plus `import mixlim.cli`, after one untimed warm-up."""
    argv = [sys.executable, "-c", "import mixlim.cli"]
    times = []
    for probe in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        done = runner.spawn(argv)
        elapsed = time.perf_counter() - start
        if done is None or done[2] != 0:
            raise RuntimeError(f"importing mixlim failed: {done and done[1].strip()[-400:]}")
        if probe:
            times.append(elapsed)
    return times


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(cycles: list[dict], setup: list[float]) -> tuple[dict, list[str]]:
    """End-to-end metrics with units, and the summary lines stating sample counts."""
    times = [op["time_s"] for c in cycles for op in c["ops"] if op["time_s"] is not None]
    verdicts = [op["verdict"] for c in cycles for op in c["ops"] if op["verdict"] is not None]
    attempted = sum(len(c["ops"]) for c in cycles)
    failed = sum(op["error"] is not None for c in cycles for op in c["ops"])
    if not times:
        raise RuntimeError("no campaign completed")
    metrics = {
        "wall_s": (statistics.median(c["wall_s"] for c in cycles), "s",
                   f"median of {len(cycles)} cycles"),
        "draws_per_s": (statistics.median(c["draws"] / c["wall_s"] for c in cycles), "1/s",
                        f"median of {len(cycles)} cycles"),
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} interpreters"),
        "peak_rss_mb": (max(c["peak_rss_mb"] for c in cycles), "MB", "largest process"),
    }
    lines = [f"{name:<20} {value:>14.6g} {unit:<5} ({note})"
             for name, (value, unit, note) in metrics.items()]
    # Reported, not gated (NOTES.md says why): campaign percentiles, which the
    # host's drift moves too far on small two-thread campaigns, and the
    # seed-dependent pass share and the failed share, zero on a good run.
    lines.append(f"{'campaign_s.p50':<20} {statistics.median(times):>14.6g} s     "
                 f"({len(times)} campaigns)")
    by_label: dict[str, list[float]] = {}
    for c in cycles:
        for op in c["ops"]:
            if "label" in op and op["time_s"] is not None:
                by_label.setdefault(op["label"], []).append(op["time_s"])
    lines += [f"  campaign {label:<14} {statistics.median(ts):>10.4f} s (median of {len(ts)})"
              for label, ts in by_label.items()]
    if reportable(90, len(times)):
        lines.append(f"{'campaign_s.p90':<20} {percentile(times, 90):>14.6g} s     "
                     f"({len(times)} campaigns)")
    else:
        lines.append(f"{'campaign_s.p90':<20} {'n/a':>14} s     "
                     f"(needs >= 100 campaigns, have {len(times)})")
    share = sum(verdicts) / len(verdicts) if verdicts else float("nan")
    lines.append(f"{'verdict_pass_share':<20} {share:>14.6g} ratio "
                 f"({sum(verdicts)} of {len(verdicts)} verdicts passed)")
    lines.append(f"{'failed_share':<20} {failed / max(attempted, 1):>14.6g} ratio "
                 f"({failed} of {attempted} campaigns failed)")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()}, lines


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(traced: dict, untraced: dict, probe: dict) -> dict:
    """Per-layer metrics of a traced cycle, with units."""
    summary = tracing.merge(traced["summaries"])
    counters: dict[str, float] = {}
    for process in traced["counters"]:
        for key, value in process.items():
            counters[key] = counters.get(key, 0.0) + value
    names, layers, root_ns = summary["names"], summary["layers"], summary["root_ns"]

    def name(key: str, field: str) -> float:
        return names[key][field] if key in names else 0

    def count(key: str) -> float:
        return counters.get(key, 0.0)

    mc_busy = name("samplers.monte_carlo", "busy_ns")
    draws = count("samplers.draws")
    stable = "stable_limit.sample_stable"
    cdf_points = count("stable_limit.cdf.points")
    collect = "diagnostics.collect_diagnostics"
    metrics = {
        "samplers.monte_carlo.calls": (name("samplers.monte_carlo", "calls"), "count"),
        "samplers.monte_carlo.busy_s": (mc_busy / 1e9, "s"),
        "samplers.draws": (draws, "count"),
        "samplers.heavy_draws": (count("samplers.heavy_draws"), "count"),
        "samplers.ns_per_draw": (_ratio(mc_busy, draws), "ns"),
        "samplers.uniforms.calls": (count("samplers.uniforms.calls"), "count"),
        "samplers.uniforms.ns_per_uniform": (
            _ratio(count("samplers.uniforms.ns"), count("samplers.uniforms.units")), "ns"),
        "samplers.us_per_replicate": (_ratio(mc_busy / 1e3, count("samplers.replicates")), "us"),
        "samplers.ns_per_draw_1t": (probe["ns_per_draw_1t"], "ns"),
        "samplers.speedup_2t": (probe["speedup_2t"], "x"),
        "samplers.peak_alloc_mb": (probe["peak_alloc_mb"], "MB"),
        f"{stable}.calls": (name(stable, "calls"), "count"),
        f"{stable}.busy_s": (name(stable, "busy_ns") / 1e9, "s"),
        f"{stable}.a_lt1.ns_per_variate": (
            _ratio(count(f"{stable}.a_lt1.ns"), count(f"{stable}.a_lt1.variates")), "ns"),
        f"{stable}.a_gt1.ns_per_variate": (
            _ratio(count(f"{stable}.a_gt1.ns"), count(f"{stable}.a_gt1.variates")), "ns"),
        f"{stable}.a_eq1.busy_s": (count(f"{stable}.a_eq1.ns") / 1e9, "s"),
        "stable_limit.cdf.points": (cdf_points, "count"),
        "stable_limit.cdf.ms_per_point": (
            _ratio(name("stable_limit.cdf", "busy_ns") / 1e6, cdf_points), "ms"),
        "stable_limit.cdf.failed": (name("stable_limit.cdf", "raised"), "count"),
        "stable_limit.char_exponent.calls": (name("stable_limit.char_exponent", "calls"), "count"),
        "stable_limit.char_exponent.busy_s": (
            name("stable_limit.char_exponent", "busy_ns") / 1e9, "s"),
        "stats.ks_one_sample.busy_s": (name("stats.ks_one_sample", "busy_ns") / 1e9, "s"),
        "stats.ks_two_sample.busy_s": (name("stats.ks_two_sample", "busy_ns") / 1e9, "s"),
        "stats.ecf_distance.busy_s": (name("stats.ecf_distance", "busy_ns") / 1e9, "s"),
        "stats.lln_ratio_check.self_s": (name("stats.lln_ratio_check", "self_ns") / 1e9, "s"),
        "regimes.classify.calls": (name("regimes.classify", "calls"), "count"),
        "regimes.classify.us_per_call": (
            _ratio(name("regimes.classify", "busy_ns") / 1e3, name("regimes.classify", "calls")),
            "us"),
        "regimes.normalization_plan.busy_s": (
            name("regimes.normalization_plan", "busy_ns") / 1e9, "s"),
        "model.calls": (sum(v["calls"] for k, v in names.items() if k.startswith("model.")),
                        "count"),
        "model.busy_s": (layers.get("model", {}).get("busy_ns", 0) / 1e9, "s"),
        f"{collect}.calls": (name(collect, "calls"), "count"),
        f"{collect}.ms_per_call": (_ratio(name(collect, "busy_ns") / 1e6, name(collect, "calls")),
                                   "ms"),
        f"{collect}.failed": (name(collect, "raised"), "count"),
        "cli.main.self_s": (name("cli.main", "self_ns") / 1e9, "s"),
        "cli.bytes_written": (traced["bytes_written"], "B"),
        "trace.overhead_share": (traced["wall_s"] / untraced["wall_s"] - 1.0, "ratio"),
    }
    # Share of campaign time spent in each layer's own code (self time).
    for layer in (*tracing.LAYERS, "cli"):
        self_ns = layers.get(layer, {}).get("self_ns", 0)
        metrics[f"{layer}.share"] = (_ratio(self_ns, root_ns), "ratio")
    return {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def l3_cache_bytes():
    """Size of the last-level (L3) cache of cpu0 as the kernel reports it, or None."""
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                scale = {"K": 2**10, "M": 2**20}.get(size[-1], 1)
                return int(size.rstrip("KM")) * scale
        except (OSError, ValueError):
            continue
    return None


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "mixlim" / "__init__.py").is_file():
        print(f"error: no mixlim sources under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    threads = len(os.sched_getaffinity(0))  # what `nproc` prints
    work = root / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(root, work, started)
        setup = setup_times(runner)
        canary, error = runner.job({"kind": "canary"})
        if canary is None:
            raise RuntimeError(f"canary job failed: {error}")
        facts = {"workload": args.workload, "seed": args.seed, "nproc": threads,
                 "threads": threads, "python": canary["python"], "numpy": canary["numpy"],
                 "scipy": canary["scipy"], "l3_bytes": l3_cache_bytes(), "trace": args.trace}
        print("facts " + json.dumps(facts))
        for problem in canary["problems"]:
            print(f"canary mismatch: {problem}")
        print("canary " + ("FAILED" if canary["problems"] else "ok"))

        rng = random.Random(f"{args.workload}:{args.seed}")
        make = WORKLOADS[args.workload]
        if args.trace:
            campaigns = make(rng, threads)
            untraced = run_cycle(runner, campaigns, traced=False)
            traced = run_cycle(runner, campaigns, traced=True)
            probe, error = runner.job({"kind": "probe", **SCALING_PROBES[args.workload]})
            if probe is None:
                raise RuntimeError(f"scaling probe failed: {error}")
            cycles = [untraced, traced]
            metrics = per_layer(traced, untraced, probe)
            for key, metric in metrics.items():
                print(f"{key:<45} {metric['value']:>14.6g} {metric['unit']}")
        else:
            cycles = []
            measure_start = time.perf_counter()
            while True:
                cycles.append(run_cycle(runner, make(rng, threads), traced=False))
                last = cycles[-1]["wall_s"]
                if (time.perf_counter() - measure_start + last > args.seconds
                        or runner.remaining() < 2 * last):
                    break
            metrics, lines = end_to_end(cycles, setup)
            print("\n".join(lines))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's work directory is still there

    errors = [op["error"] for c in cycles for op in c["ops"] if op["error"] is not None]
    for error in errors:
        print(f"failed: {error}")
    attempted = sum(len(c["ops"]) for c in cycles)
    correct = not canary["problems"] and not errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(errors),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
