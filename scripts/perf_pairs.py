#!/usr/bin/env python3
"""Runs the end-to-end benchmark on a parent revision and the working tree
in alternating pairs, and compares every end-to-end metric.

Usage, from the root of a checkout:

    python3 scripts/perf_pairs.py --parent REV --workload W
                                  [--pairs 10] [--seconds 30] [--seed 1]

REV is checked out with `git worktree add --detach` under
`target/perf_pairs/`, and removed again on exit. Each tree runs its own
`perfbench/run.py`, built into its own `CARGO_TARGET_DIR` under
`target/perf_pairs/`. Pair i runs the parent first when i is even and
the change first when i is odd. A run that exits non-zero or reports
`"correct": false` stops the script with exit code 1.

For every end-to-end metric in BENCHMARK.json it prints each side's
median and quartiles (Python's `statistics.quantiles(n=4)`), the number
of pairs the change won (ties count for neither), the parent's quartile
distance, the parent runs' spread, (max - min) / median, and a verdict:

- `worse`: the change median is worse than the parent median by more
  than the metric's `bound` (a fraction of the parent median);
- `unresolved`: the parent spread exceeds the `bound`, so the parent
  alone moves more than the bound between runs, and not every change run
  beats every parent run.

It also flags a failed share (failed / attempted) that is higher on the
change side than on the parent side. The script exits with code 3 when
any metric is `worse` or the failed share rose, and 0 otherwise; an
`unresolved` metric alone does not change the exit code.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASE = os.path.join(ROOT, "target", "perf_pairs")


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


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


def run_bench(tree, target, workload, seed, seconds):
    """One untraced perfbench run in `tree`; returns its JSON result."""
    cmd = [
        sys.executable,
        os.path.join(tree, "perfbench", "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    run = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: exit {run.returncode}\n{run.stderr[-3000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{tree}: \"correct\": false\n{run.stdout[-3000:]}")
    return result


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def report(metrics, runs):
    """Prints one row per end-to-end metric; `runs` holds one
    (parent, change) result pair per pair run. Returns True when a metric
    is `worse` or the change's failed share is higher."""
    n = len(runs)
    print(f"\n{n} pairs")
    shares = []
    for side in (0, 1):
        attempted = sum(r[side]["attempted"] for r in runs)
        failed = sum(r[side]["failed"] for r in runs)
        shares.append(failed / attempted if attempted else 0.0)
        name = ("parent", "change")[side]
        print(f"  {name}: {failed} failed of {attempted} attempted")
    regressed = shares[1] > shares[0]
    if regressed:
        print(f"  failed share rose: {shares[0]:.3%} -> {shares[1]:.3%}")
    head = (
        f"{'metric':<14} {'parent median [q1, q3]':<34} {'change median [q1, q3]':<34}"
        f" {'change/parent':>13} {'won':>6} {'parent iqr':>11} {'spread':>7} {'bound':>6}"
    )
    print(head)
    for m in metrics:
        name = m["name"]
        parent = [r[0]["metrics"][name]["value"] for r in runs]
        change = [r[1]["metrics"][name]["value"] for r in runs]
        lower = m["better"] == "lower"
        won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        pq1, pmed, pq3 = quartiles(parent)
        cq1, cmed, cq3 = quartiles(change)
        spread = (max(parent) - min(parent)) / pmed if pmed else float("inf")
        bound = m["bound"]
        worse = (cmed > pmed * (1 + bound)) if lower else (cmed < pmed * (1 - bound))
        all_won = max(change) < min(parent) if lower else min(change) > max(parent)
        flags = ["worse"] * worse + ["unresolved"] * (spread > bound and not all_won)
        regressed |= worse
        print(
            f"{name:<14} {f'{pmed:.6g} [{pq1:.6g}, {pq3:.6g}]':<34}"
            f" {f'{cmed:.6g} [{cq1:.6g}, {cq3:.6g}]':<34}"
            f" {cmed / pmed if pmed else float('inf'):>13.4f} {f'{won}/{n}':>6}"
            f" {pq3 - pq1:>11.4g} {spread:>7.1%} {bound:>6.0%} {', '.join(flags)}"
        )
    return regressed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True, help="a workload perfbench/run.py knows")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    rev = git("rev-parse", "--verify", args.parent + "^{commit}")
    worktree = os.path.join(BASE, "parent-" + rev[:12])
    sides = [
        ("parent", worktree, os.path.join(BASE, "build-parent")),
        ("change", ROOT, os.path.join(BASE, "build-change")),
    ]
    os.makedirs(BASE, exist_ok=True)
    if os.path.exists(worktree):
        git("worktree", "remove", "--force", worktree)
    git("worktree", "add", "--detach", worktree, rev)
    try:
        print(host_facts())
        print(f"parent {rev[:12]} ({worktree}), change: working tree ({ROOT})")
        # A one-second run per side builds both trees before any timing.
        for name, tree, target in sides:
            print(f"building {name} into {target}", flush=True)
            run_bench(tree, target, args.workload, args.seed, 1)
        runs = []
        for i in range(args.pairs):
            order = sides if i % 2 == 0 else sides[::-1]
            pair = {}
            for name, tree, target in order:
                result = run_bench(tree, target, args.workload, args.seed, args.seconds)
                pair[name] = result
                shown = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                print(
                    f"pair {i + 1} {name}: {shown} attempted={result['attempted']}"
                    f" failed={result['failed']}",
                    flush=True,
                )
            runs.append((pair["parent"], pair["change"]))
        print(f"\n{args.workload}, seed {args.seed}, {args.seconds} s runs")
        if report(metrics, runs):
            return 3
    except RuntimeError as e:
        print(f"perf_pairs: {e}", file=sys.stderr)
        return 1
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", worktree], cwd=ROOT)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
