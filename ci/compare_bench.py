#!/usr/bin/env python3
"""Gate a google-benchmark JSON run on same-run ratios; compare it with the baseline.

Usage: compare_bench.py CURRENT.json [BASELINE.json]

Two kinds of check:

* Same-run ratio gates (RATIO_GATES).  Both sides of a ratio come from the
  same run on the same machine, so runner speed cancels out; a gate past
  its limit is a real regression and the script exits 1.
* Absolute comparisons against the checked-in baseline.  Shared CI runners
  are far too noisy to gate a build on absolute timings, so anything past
  THRESHOLD only emits a GitHub Actions ::warning:: annotation.

Unreadable inputs also exit non-zero (a crash upstream should already have
failed the run step).
"""

import json
import sys

THRESHOLD = 1.5  # warn past a 1.5x slowdown vs the baseline

# (numerator, denominator, limit, reason): fail when num / den > limit.
RATIO_GATES = [
    ("BM_SweepPoint512_Analytic", "BM_SweepPoint512_CycleAccurate", 2e-4,
     "an analytic 512x512 point must stay O(1): the default address order "
     "is computed, never materialised (~1e-5 measured; ~2e-3 when it was "
     "materialised)"),
    ("BM_SweepPoint256_Traced", "BM_SweepPoint256_CycleAccurate", 1.3,
     "time-resolved power tracing must stay cheap next to the untraced "
     "cycle-accurate point (~1.22 measured)"),
    ("BM_ServiceSubmitCached", "BM_ServiceSubmitCold", 0.6,
     "a whole-job cache hit must stay well below a computed submit "
     "(~0.34 measured)"),
    ("BM_ServiceSubmitCampaign256", "BM_Campaign256_Batched", 2.0,
     "a served campaign must lease whole plan_batches batches, one "
     "session pair per shard (0.94-1.12 measured on a shared 4-core "
     "host; 3.2-3.9 on the same host when the service cut campaigns "
     "into 4-fault shards across batches)"),
    ("BM_FunctionalCycle/4096", "BM_FunctionalCycle/512", 2.0,
     "one cycle() call must stay O(word_width) amortised: 1.00-1.20 "
     "measured as a one-op run on a shared 4-core host (0.95-1.15 for "
     "the separate per-cycle executor it replaced); a per-call O(cols) "
     "scan would put the ratio far past 2 (7.0 measured)"),
    ("BM_LowPowerCycle/4096", "BM_LowPowerCycle/512", 2.0,
     "one low-power cycle() call (restore on the row's last group) must "
     "stay O(word_width) amortised: 1.00-1.13 measured as a one-op run "
     "on a shared 4-core host (0.72-1.05 for the separate per-cycle "
     "executor it replaced); a per-call O(cols) scan would put the "
     "ratio far past 2 (6.4 measured)"),
    ("BM_Campaign512_PerFault", "BM_SweepPoint512_CycleAccurate", 0.05,
     "a one-fault campaign's session pair must simulate only its row cone "
     "(the victim's row plus the order's first and last rows of 512), "
     "not the whole array: 0.005-0.0074 measured with the cone on a "
     "shared 4-core host, 0.76-1.17 when every campaign session ran "
     "every row"),
    ("BM_FunctionalSession512_Traced", "BM_FunctionalCycle/512", 5e5,
     "a fault-free functional session must cost O(rows x elements), not "
     "O(cycles): every run advances all addresses but its last in one "
     "exact repeated-addition step.  The 512x512 March SS session traced "
     "at 8 x words windows (5.77M cycles) read 1.0e5 cycle() calls' worth, "
     "8.0e5 when every cycle ran through the batch loop (back-to-back "
     "runs on a shared 4-core host at load average 1.9; every run is in "
     "the perf history under bench/history)"),
    ("BM_SearchJob128", "BM_SearchVerify128", 2.0,
     "a schedule-search job must stay close to the cycle-accurate "
     "verification of its reported front: one job solves every order and "
     "verifies only the reported answer, ~1 on a shared 4-core host; 3.6-"
     "5.4 when each order's optimum was verified (4 verifications, 1 "
     "reported), 17-33 for the seeded beam search before that"),
]

UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_times(path):
    """name -> real_time in ns (aggregate entries like _mean are skipped)."""
    with open(path) as f:
        data = json.load(f)
    times = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench["name"]
        times[name] = bench["real_time"] * UNIT_NS[bench.get("time_unit", "ns")]
    return times


def check_ratio_gates(current):
    """Print every gate; return the number that failed."""
    failures = 0
    for num, den, limit, reason in RATIO_GATES:
        if num not in current or den not in current:
            print(f"::error title=ratio gate::{num} / {den}: benchmark "
                  f"missing from the current run")
            failures += 1
            continue
        ratio = current[num] / current[den]
        verdict = "ok" if ratio <= limit else "FAIL"
        print(f"gate {num} / {den} = {ratio:.3g} (limit {limit:g}): {verdict}")
        if ratio > limit:
            print(f"::error title=ratio gate::{num} / {den} = {ratio:.3g} "
                  f"exceeds {limit:g} in the same run: {reason}")
            failures += 1
    return failures


def main(argv):
    if len(argv) < 2:
        print(f"usage: {argv[0]} CURRENT.json [BASELINE.json]")
        return 2
    current = load_times(argv[1])
    baseline = load_times(argv[2] if len(argv) > 2 else "ci/bench_baseline.json")

    failures = check_ratio_gates(current)

    regressions = []
    for name, base_ns in sorted(baseline.items()):
        if name not in current:
            print(f"::warning::benchmark '{name}' missing from the current run")
            continue
        ratio = current[name] / base_ns
        marker = "  <-- REGRESSION" if ratio > THRESHOLD else ""
        print(f"{name}: {current[name] / 1e6:.3f} ms vs baseline "
              f"{base_ns / 1e6:.3f} ms ({ratio:.2f}x){marker}")
        if ratio > THRESHOLD:
            regressions.append((name, ratio))

    for name, ratio in regressions:
        print(f"::warning title=perf regression::{name} is {ratio:.2f}x the "
              f"checked-in baseline (threshold {THRESHOLD}x); runners are "
              f"noisy — compare the uploaded BENCH_*.json artifacts before "
              f"acting")
    if not regressions:
        print(f"all benchmarks within {THRESHOLD}x of the baseline")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
