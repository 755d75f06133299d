#!/usr/bin/env python3
"""The repository benchmark: three served workloads through `sramlp_dist serve`.

One run:

    python3 perfbench/run.py --workload sweep_analytic --seed 1 \
        --seconds 20 --trace 0

builds the daemon and the load generator from source (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs the seeded workload against a
fresh daemon, checks every distinct job's document byte for byte against
`sramlp_dist single`, and prints the end-to-end metrics (--trace 0) or the
per-layer metrics of a traced run (--trace 1).  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The exit code is non-zero when any output is wrong.

Steadiness mode:

    python3 perfbench/run.py --workload schedule_search --seed 1 \
        --seconds 20 --repeat 10 [--sets 2]

runs the workload --repeat times per set on consecutive seeds and prints,
per end-to-end metric, the median, the quartiles and the spread
(interquartile range over median) against the metric's bound in
BENCHMARK.json; with --sets 2 it also prints how far the second set's
median moved from the first's.

See perfbench/README.md for the metric catalogue and the span files.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("sweep_analytic", "campaign_faults", "schedule_search")
ORACLE_PROCESSES = 4
SEARCH_ORACLE_SAMPLE = 20
LOADGEN_TIMEOUT_S = 170

# End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "items_per_s": ("items/s", "higher"),
    "job_latency_p50_ms": ("ms", "lower"),
    "job_latency_p95_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "prr_error_pts": ("pct_points", "lower"),
    "schedule_cycles_ratio": ("ratio", "lower"),
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def build() -> Path:
    """Configure (once) and build the daemon and the load generator."""
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", "sramlp_dist", "perfbench_loadgen"],
                   check=True, stdout=sys.stderr)
    return build_dir


def drive(build_dir: Path, args: argparse.Namespace, run_dir: Path,
          extra: list[str]) -> dict:
    """One perfbench_loadgen run; returns its run.json."""
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    subprocess.run([str(build_dir / "perfbench_loadgen"), "run",
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds),
                    "--dist", str(build_dir / "sramlp" / "tools" /
                                  "sramlp_dist"),
                    "--dir", str(run_dir)] + extra,
                   check=True, timeout=LOADGEN_TIMEOUT_S, stdout=sys.stderr)
    return json.loads((run_dir / "run.json").read_text())


def oracle(build_dir: Path, run: dict, run_dir: Path, seed: int) -> set[int]:
    """Byte-compare documents with `sramlp_dist single`; returns bad ids."""
    ids = sorted({job["id"] for job in run["jobs"]})
    if run["workload"] == "schedule_search" and len(ids) > SEARCH_ORACLE_SAMPLE:
        ids = sorted(random.Random(seed).sample(ids, SEARCH_ORACLE_SAMPLE))
    single_dir = run_dir / "single"
    single_dir.mkdir(exist_ok=True)
    dist = str(build_dir / "sramlp" / "tools" / "sramlp_dist")

    def check(job_id: int) -> bool:
        out = single_dir / f"{job_id}.json"
        done = subprocess.run(
            [dist, "single", "--job", str(run_dir / "jobs" / f"{job_id}.json"),
             "--out", str(out)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return (done.returncode == 0 and out.read_bytes() ==
                (run_dir / "docs" / f"{job_id}.json").read_bytes())

    with concurrent.futures.ThreadPoolExecutor(ORACLE_PROCESSES) as pool:
        verdicts = list(pool.map(check, ids))
    bad = {job_id for job_id, ok in zip(ids, verdicts) if not ok}
    log(f"oracle: {len(ids)} distinct documents compared with "
        f"`sramlp_dist single`, {len(bad)} differ")
    return bad


def failures(run: dict, bad_ids: set[int]) -> int:
    return sum(1 for job in run["jobs"]
               if "error" in job or job["id"] in bad_ids)


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def items_per_s(run: dict) -> float:
    """Throughput over the window, robust to bursts of host contention.

    On the stratified workloads every block holds each stratum once, so a
    block's time is the sum of one job per stratum: the figure is a block's
    items over the sum of each stratum's median latency.  On sweep_analytic
    it is the median of the per-second completion rates (the last, partial
    second joins the one before).
    """
    jobs = run["jobs"]
    if run["block_size"] > 1:
        strata = by_stratum(jobs)
        items = sum(statistics.fmean(job["items"] for job in group)
                    for group in strata)
        seconds = sum(statistics.median(job["latency_ms"] for job in group)
                      for group in strata) / 1e3
        return items / seconds
    slices = max(1, int(run["window_s"]))
    items = [0] * slices
    for job in jobs:
        done_s = (job["start_ms"] + job["latency_ms"]) / 1e3
        items[min(int(done_s), slices - 1)] += job["items"]
    rates = items[:-1] + [items[-1] / (run["window_s"] - (slices - 1))]
    return statistics.median(rates)


def by_stratum(jobs: list[dict]) -> list[list[dict]]:
    strata: dict[str, list[dict]] = {}
    for job in jobs:
        strata.setdefault(job["label"], []).append(job)
    return list(strata.values())


def latency_samples(run: dict) -> list[float]:
    """Job latencies; on schedule_search, each stratum's median latency.

    A search run holds about 50 jobs, too few for a 95th percentile of raw
    latencies to have samples beyond it; over the 12 strata the
    percentiles rank the typical latency of each (test, geometry) pair.
    """
    if run["workload"] == "schedule_search":
        return [statistics.median(job["latency_ms"] for job in group)
                for group in by_stratum(run["jobs"])]
    return [job["latency_ms"] for job in run["jobs"]]


def end_to_end(run: dict) -> dict[str, float]:
    jobs = run["jobs"]
    latencies = latency_samples(run)
    if run["workload"] == "schedule_search":
        ratios = [job["cycles_ratio"] for job in jobs if "cycles_ratio" in job]
        cycles_ratio = statistics.fmean(ratios) if ratios else float("nan")
    else:
        cycles_ratio = run["reference_cycles_ratio"]
    return {
        "setup_s": statistics.median(run["setup_s"]),
        "items_per_s": items_per_s(run),
        "job_latency_p50_ms": statistics.median(latencies),
        "job_latency_p95_ms": percentile(latencies, 95),
        "peak_rss_mb": run["peak_rss_kb"] / 1024.0,
        "prr_error_pts": run["prr_error_pts"],
        "schedule_cycles_ratio": cycles_ratio,
    }


def describe_mix(run: dict) -> None:
    jobs = run["jobs"]
    items = sum(job["items"] for job in jobs)
    print(f"workload {run['workload']}  seed {run['seed']}  "
          f"{len(jobs)} jobs  {items} items  window {run['window_s']:.2f} s"
          f"  (blocks of {run['block_size']}, "
          f"{'whole' if run['whole_blocks'] else 'PARTIAL'})")
    geometries: dict[str, int] = {}
    labels: dict[str, int] = {}
    for job in jobs:
        for geometry in job["geometries"]:
            geometries[geometry] = geometries.get(geometry, 0) + 1
        labels[job["label"]] = labels.get(job["label"], 0) + 1
    print("  geometries: " + ", ".join(
        f"{g} x{n}" for g, n in sorted(geometries.items())))
    if run["workload"] == "sweep_analytic":
        for reuse in ("fresh", "resubmit", "overlap"):
            share = sum(1 for job in jobs if job["reuse"] == reuse) / len(jobs)
            print(f"  reuse {reuse}: {100 * share:.1f}% of jobs")
        hits = sum(1 for job in jobs if job["cache_hit"])
        print(f"  whole-job cache hits: {hits}")
    else:
        print("  strata: " + ", ".join(
            f"{label} x{n}" for label, n in sorted(labels.items())))


def run_once(args: argparse.Namespace) -> int:
    build_dir = build()
    base = ROOT / ".bench_run"
    if args.trace == 0:
        run_dir = base / f"{args.workload}-{args.seed}"
        run = drive(build_dir, args, run_dir, ["--accuracy"])
        bad = oracle(build_dir, run, run_dir, args.seed)
        describe_mix(run)
        metrics = end_to_end(run)
        failed = failures(run, bad)
        attempted = len(run["jobs"])
        for name, value in metrics.items():
            print(f"  {name} = {value:.6g} {END_TO_END[name][0]}")
        print(f"  (latency samples: {len(latency_samples(run))}; setups: "
              f"{len(run['setup_s'])})")
        print(f"  error_rate = {failed / attempted:.6g} share "
              f"({failed} of {attempted} jobs)")
        result = {name: {"value": value, "unit": END_TO_END[name][0]}
                  for name, value in metrics.items()}
    else:
        plain_dir = base / f"{args.workload}-{args.seed}-untraced"
        plain = drive(build_dir, args, plain_dir, ["--setups", "1"])
        run_dir = base / f"{args.workload}-{args.seed}-traced"
        run = drive(build_dir, args, run_dir, ["--setups", "1", "--trace"])
        bad = oracle(build_dir, run, run_dir, args.seed)
        describe_mix(run)
        failed = failures(run, bad) + failures(plain, set())
        attempted = len(run["jobs"]) + len(plain["jobs"])
        per_layer = run["per_layer"]
        per_layer["obs.trace_overhead"] = {
            "value": items_per_s(run) / items_per_s(plain),
            "unit": "ratio", "samples": 2}
        for name, metric in per_layer.items():
            print(f"  {name} = {metric['value']:.6g} {metric['unit']} "
                  f"({metric['samples']} samples)")
        print("  spans (count, total ms, self ms):")
        for name, row in run["spans"].items():
            print(f"    {name:24s} {row['count']:8d} {row['total_ms']:12.3f} "
                  f"{row['self_ms']:12.3f}")
        print(f"  span file: {run['span_file']} (+ daemon spans inside)")
        result = {name: {"value": m["value"], "unit": m["unit"]}
                  for name, m in per_layer.items()}
    for bulky in ("jobs", "docs", "single"):
        shutil.rmtree(run_dir / bulky, ignore_errors=True)
        if args.trace:
            shutil.rmtree(plain_dir / bulky, ignore_errors=True)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if correct else 1


def steadiness(args: argparse.Namespace) -> int:
    """Run --repeat seeds per set; print quartiles and spreads vs bounds."""
    bounds = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.exists():
        bounds = {m["name"]: m["bound"]
                  for m in json.loads(spec.read_text())["end_to_end"]}
    medians = []
    status = 0
    for set_index in range(args.sets):
        values: dict[str, list[float]] = {name: [] for name in END_TO_END}
        for i in range(args.repeat):
            seed = args.seed + set_index * args.repeat + i
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", args.workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=LOADGEN_TIMEOUT_S + 10)
            last = done.stdout.strip().splitlines()[-1] if done.stdout else ""
            if done.returncode != 0:
                log(f"seed {seed}: run failed ({done.returncode}): {last}")
                status = 1
                continue
            result = json.loads(last)
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            log(f"set {set_index + 1} seed {seed}: " + ", ".join(
                f"{name}={metric['value']:.4g}"
                for name, metric in result["metrics"].items()))
        print(f"{args.workload} set {set_index + 1}: {args.repeat} seeds from "
              f"{args.seed + set_index * args.repeat}")
        print(f"  {'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        set_medians = {}
        for name, series in values.items():
            if len(series) < 2:
                continue
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = ("ok" if spread <= bound / 3 else
                           "within bound" if spread <= bound else "TOO WIDE")
            print(f"  {name:24s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '-':>6} "
                  f"{verdict}")
            set_medians[name] = median
        medians.append(set_medians)
    if len(medians) == 2:
        print("median shift, set 2 vs set 1 (positive = worse):")
        for name, first in medians[0].items():
            second = medians[1].get(name)
            if second is None or not first:
                continue
            worse = (second - first) / first
            if END_TO_END[name][1] == "higher":
                worse = -worse
            bound = bounds.get(name)
            verdict = "" if bound is None else (
                "ok" if worse <= bound else "WORSE THAN BOUND")
            print(f"  {name:24s} {worse:+8.4f} {verdict}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: runs per set")
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = parser.parse_args()
    try:
        if args.repeat > 0:
            build()
            return steadiness(args)
        return run_once(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
