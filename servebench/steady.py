#!/usr/bin/env python3
"""Steadiness check for the serve-path benchmark.

Runs every workload (or those named) --runs times with seeds 1..N, then
prints for each end-to-end metric the median, the quartiles and the spread
(Q3 - Q1) / median next to the metric's bound in BENCHMARK.json, and the
share of failed operations. Run from the root of a checkout:

    python3 servebench/steady.py --runs 10 [--workloads phttp_cold ...]

Exits 1 when a spread exceeds its bound, or a run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds):
    out = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()

    ok = True
    for workload in args.workloads:
        results = []
        for seed in range(1, args.runs + 1):
            result = run_once(bench["command"], workload, seed, bench["run_seconds"])
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: run failed or incorrect", flush=True)
                ok = False
                continue
            results.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        if len(results) < 2:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{workload}: {len(results)} runs, failed share {shares}")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            verdict = "ok" if spread <= metric["bound"] / 3 else (
                "ok (within bound)" if spread <= metric["bound"] else "OVER")
            if spread > metric["bound"]:
                ok = False
            print(f"  {name:<16} {median:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                  f"{spread:>8.3f} {metric['bound']:>6} {verdict}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
