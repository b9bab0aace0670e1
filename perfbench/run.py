#!/usr/bin/env python3
"""Builds and runs the layered benchmark from the root of a repository checkout.

    python3 perfbench/run.py --workload <place|steady|overload|boundary> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test      # the benchmark's own tests:
                                         # pooling self-test, then gtest

The harness is compiled from source (perfbench/CMakeLists.txt builds the
repository's ../src libraries) into .bench_build/perfbench. Build output goes
to stderr.

One run is PROCESSES fresh harness processes, one after another, each for an
equal share of --seconds, all on the same seed. The step samples of all of
them are pooled. Fresh processes differ from one another: six 5 s `place`
processes on one seed, started back to back, read 4.2-5.4 ms step p50.
Pooling averages that away. Every process must report the same quality and
counts, which are deterministic per seed.

Each process reports raw samples; this script computes every end-to-end
metric from the pooled samples, and pools the per-layer metrics. The last
line of stdout is the result line. The script exits non-zero, printing no
result, when the build or any process fails.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
PROCESSES = 5
RUN_TIMEOUT_S = 170
# Compiler and harness temporaries stay inside the checkout.
ENV = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
UNITS = {"setup_s": "s", "peak_rss_mib": "MiB", "ok_frac": "ratio",
         "work_per_s": "1/s", "step_ms_p50": "ms", "step_ms_p90": "ms",
         "quality": "ratio"}


def build(target):
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD]
        if subprocess.call(configure, stdout=sys.stderr, env=ENV) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    return subprocess.call(cmd, stdout=sys.stderr, env=ENV) == 0


def run_process(args, out_dir, seconds, deadline):
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds),
           "--trace", str(args.trace), "--out-dir", out_dir]
    timeout = max(1.0, deadline - time.monotonic())
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         timeout=timeout, env=ENV)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or len(lines) < 2:
        sys.stderr.write(run.stdout)
        raise RuntimeError(f"harness exited with {run.returncode}")
    provenance, report = (json.loads(line) for line in lines[-2:])
    return provenance["provenance"], report["report"]


def finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def end_to_end(reports):
    """The end-to-end metrics over the pooled samples of all processes."""
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    untraced = [v for r in reports for v in r["untraced_ms"]]
    # Linear interpolation between order statistics, as rod::Percentile.
    deciles = statistics.quantiles(untraced, n=10, method="inclusive")
    return {
        "setup_s": statistics.median(v for r in reports for v in r["setup_s"]),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in reports),
        "ok_frac": (attempted - failed) / attempted,
        "work_per_s": (sum(r["work"] for r in reports) /
                       sum(r["work_seconds"] for r in reports)),
        "step_ms_p50": deciles[4],
        "step_ms_p90": deciles[8],
        "quality": reports[0]["fingerprint"]["quality"],
    }


def per_layer(reports):
    """Per-process layer metrics pooled, plus the tracing overhead."""
    values = {}
    for name in reports[0]["per_layer"]:
        v = [r["per_layer"][name]["value"] for r in reports]
        # Shares are averaged so that they still sum to 1; deterministic
        # counts are equal in every process.
        values[name] = (statistics.fmean(v) if name.endswith(".self_share")
                        else statistics.median(v))
    untraced = statistics.median(v for r in reports for v in r["untraced_ms"])
    traced = statistics.median(v for r in reports for v in r["traced_ms"])
    values["harness.trace_overhead_pct"] = 100.0 * (traced - untraced) / untraced
    return values


def pool(reports, trace):
    """Merges the process reports into the result line's object."""
    units = UNITS
    if trace:
        units = {name: m["unit"] for name, m in reports[0]["per_layer"].items()}
        units["harness.trace_overhead_pct"] = "%"
    values = per_layer(reports) if trace else end_to_end(reports)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    # Quality and counts are deterministic per seed: every process agrees.
    correct = (failed == 0 and
               all(r["fingerprint"] == reports[0]["fingerprint"]
                   for r in reports) and
               all(finite(v) for v in values.values()))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": v, "unit": units[name]}
                        for name, v in values.items()}}


def self_test():
    """Pools synthetic reports; returns the number of failed checks."""
    base = {"attempted": 10, "failed": 0, "work": 10.0, "work_seconds": 0.055,
            "untraced_ms": [float(i) for i in range(1, 11)],
            "traced_ms": [float(i) + 1.0 for i in range(1, 11)],
            "setup_s": [0.25, 0.5, 0.75], "peak_rss_mib": 20.0,
            "fingerprint": {"quality": 0.5},
            "per_layer": {"geometry.self_share": {"value": 0.25,
                                                  "unit": "ratio"}}}
    good = pool([base, base], trace=False)
    m = good["metrics"]
    failed_one = pool([base, dict(base, failed=1)], trace=False)
    other_quality = pool([base, dict(base, fingerprint={"quality": 0.6})],
                         trace=False)
    traced = pool([base, base], trace=True)["metrics"]
    checks = {
        "pooled result is correct": good["correct"],
        "ok_frac is 1 without failures": m["ok_frac"]["value"] == 1.0,
        "p50 interpolates": m["step_ms_p50"]["value"] == 5.5,
        "p90 interpolates": abs(m["step_ms_p90"]["value"] - 9.1) < 1e-12,
        "work_per_s pools": abs(m["work_per_s"]["value"] - 20 / 0.11) < 1e-9,
        "setup_s is the median": m["setup_s"]["value"] == 0.5,
        "every end-to-end metric": sorted(m) == sorted(UNITS),
        "a failed check lowers ok_frac":
            failed_one["metrics"]["ok_frac"]["value"] == 0.95,
        "a failed check makes the run incorrect": not failed_one["correct"],
        "differing quality makes the run incorrect":
            not other_quality["correct"],
        "trace overhead from pooled medians": abs(
            traced["harness.trace_overhead_pct"]["value"] - 100 / 5.5) < 1e-9,
    }
    for name, ok in checks.items():
        print(f"{'ok  ' if ok else 'FAIL'} run.py: {name}")
    return sum(not ok for ok in checks.values())


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()

    if args.test:
        if self_test() != 0 or not build("perfbench_test"):
            return 1
        out_dir = os.path.join(BUILD, "test-out")
        os.makedirs(out_dir, exist_ok=True)
        return subprocess.call([os.path.join(BUILD, "perfbench_test")],
                               cwd=out_dir, env=ENV)

    if args.workload is None:
        parser.error("--workload is required")
    if not build("perfbench"):
        return 1
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        parts = []
        for k in range(PROCESSES):
            out_dir = os.path.join(BUILD, "out", f"p{k}")
            os.makedirs(out_dir, exist_ok=True)
            parts.append(run_process(args, out_dir, args.seconds / PROCESSES,
                                     deadline))
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    reports = [report for _, report in parts]
    provenance = dict(parts[0][0])
    for key in ("seconds", "passes", "untraced_steps", "traced_steps",
                "setups"):
        provenance[key] = sum(p[key] for p, _ in parts)
    provenance["processes"] = len(parts)
    try:
        result = pool(reports, args.trace == 1)
    except (TypeError, ValueError, ZeroDivisionError) as e:
        print(f"perfbench: cannot pool the process reports: {e}",
              file=sys.stderr)
        return 1
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
