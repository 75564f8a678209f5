#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports how steady it is.

Usage, from the root of a checkout:

    python3 perfbench/steadiness.py --seeds 101-110 [--workloads rpc_small,mc_yield]
                                    [--log runs.ndjson]

For every workload and seed it runs `perfbench/run.py` untraced for the
`run_seconds` in BENCHMARK.json, then prints, per end-to-end metric, the
median and quartiles of the runs (Python's `statistics.quantiles(n=4)`)
and the spread, (q3 - q1) / median, next to the metric's bound. Every
run's JSON result is appended to the log when one is given.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def host_facts():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"nproc {os.cpu_count()}, CPU {model}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="e.g. 101-110 or 1,2,5")
    ap.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    ap.add_argument("--log", help="append every run's JSON result here")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = (
        args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    )
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(host_facts())
    failed = False
    for workload in workloads:
        values = {}
        for seed in seed_list(args.seeds):
            cmd = [
                sys.executable,
                os.path.join(ROOT, "perfbench", "run.py"),
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]),
                "--trace", "0",
            ]
            run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
                failed = True
                continue
            result = json.loads(lines[-1])
            if args.log:
                with open(args.log, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            shown = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: {shown} attempted={result['attempted']} "
                  f"failed={result['failed']} correct={result['correct']}", flush=True)
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            print(f"{workload} {name}: median {statistics.median(vals):.6g} "
                  f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.2%} (bound {bounds.get(name, 0):.0%})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
