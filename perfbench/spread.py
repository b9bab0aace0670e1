#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

    python3 perfbench/spread.py --runs 10 --seconds 20 [--workloads place,steady]
        [--first-seed 1] [--json perfbench/SPREAD.json --label NAME]

Runs perfbench/run.py once per seed (first-seed, first-seed+1, ...) for each
workload, one run at a time, and reports for every end-to-end metric the
median, the quartiles (statistics.quantiles(values, n=4)), min, max and the
interquartile range as a share of the median, which is the spread that
BENCHMARK.json's bounds are checked against. Run from the checkout root.

With --json the set is appended to the file's list of sets, and each of its
medians is compared with the previous set's: how much worse it got, as a
share of the previous median, against the metric's bound.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def bench_config():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "iqr_over_median": (q3 - q1) / q2 if q2 else 0.0}


def compare(previous, summary, bounds, better):
    """Prints how much worse each median got since the previous set."""
    label = previous.get("label") or previous.get("finished", "")
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            before = previous["workloads"].get(workload, {}).get(name)
            if not before or not before["median"]:
                continue
            change = (s["median"] - before["median"]) / before["median"]
            worse = change if better[name] == "lower" else -change
            flag = "  <-- worse than bound" if worse > bounds[name] else ""
            print(f"{workload:9s} {name:12s} worse than set {label} by "
                  f"{worse:+.4f} (bound {bounds[name]}){flag}", flush=True)


def main():
    config = bench_config()
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--json", help="append the set to this file")
    parser.add_argument("--label", default="", help="names the set in --json")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    better = {m["name"]: m["better"] for m in config["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        values = {}
        for r in range(args.runs):
            result = run_once(workload, args.first_seed + r, args.seconds, 0)
            if not result["correct"]:
                print(f"{workload} seed {args.first_seed + r}: incorrect run",
                      file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {args.first_seed + r}: " + " ".join(
                f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()),
                flush=True)
        summary[workload] = {name: summarize(v) for name, v in values.items()}
        for name, s in summary[workload].items():
            flag = "" if s["iqr_over_median"] <= bounds[name] / 3 else "  <-- over bound/3"
            print(f"{workload:9s} {name:12s} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} min {s['min']:.6g} "
                  f"max {s['max']:.6g} iqr/median {s['iqr_over_median']:.4f} "
                  f"(bound {bounds[name]}){flag}", flush=True)
    if args.json:
        record = {"sets": []}
        if os.path.exists(args.json):
            with open(args.json) as f:
                record = json.load(f)
        if record["sets"]:
            compare(record["sets"][-1], summary, bounds, better)
        finished = datetime.datetime.now(datetime.timezone.utc)
        record["sets"].append({
            "label": args.label, "finished": finished.strftime("%Y-%m-%dT%H:%MZ"),
            "runs": args.runs, "seconds": args.seconds,
            "first_seed": args.first_seed, "workloads": summary})
        with open(args.json, "w") as f:
            json.dump(record, f, indent=2)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
