#!/usr/bin/env python3
"""Steadiness runs for the HARP benchmark.

Runs each workload repeatedly (one seed per repetition) and prints, per
metric, the median, the quartiles and the spread (interquartile distance
as a share of the median), plus the share of failed operations. The
bounds in BENCHMARK.json are set from these spreads.

    python3 perfbench/steady.py                      # this tree, 10 runs of 30 s
    python3 perfbench/steady.py --runs 5 --workloads wire-churn
    python3 perfbench/steady.py --trace              # per-layer metrics
    python3 perfbench/steady.py --overhead           # traced vs untraced
    python3 perfbench/steady.py --ab ../parent .     # compare two trees

Each tree is built once (release, into <tree>/.bench_build) and its binary
is run from the tree's root. With --ab the two builds alternate which runs
first, repetition by repetition, and each metric gets the ratio of medians
and the number of repetitions the second tree won.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["rm-flash-crowd", "wire-churn", "paper-eval"]


def build(tree):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(tree, "perfbench", "Cargo.toml")],
        check=True, env=env)
    return os.path.join(tree, ".bench_build", "release", "harp-perfbench")


def run_once(tree, binary, workload, seed, seconds, trace):
    cmd = [os.path.abspath(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    p = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {p.returncode}")
    return json.loads(lines[-1])


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, spread


def report(label, runs):
    print(f"== {label}: {len(runs)} runs ==")
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"failed share: {', '.join(f'{s:.6f}' for s in shares)}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        unit = runs[0]["metrics"][name]["unit"]
        med, q1, q3, spread = summary(values)
        print(f"{name:<28} median {med:14.4f} q1 {q1:14.4f} q3 {q3:14.4f}"
              f" spread {100 * spread:6.2f}% [{unit}]")


def compare(label, runs_a, runs_b):
    print(f"== {label}: B vs A ==")
    for name in runs_a[0]["metrics"]:
        a = [r["metrics"][name]["value"] for r in runs_a]
        b = [r["metrics"][name]["value"] for r in runs_b]
        ma, mb = statistics.median(a), statistics.median(b)
        ratio = mb / ma if ma else float("nan")
        higher_wins = name.endswith("ops_per_s")
        wins = sum((y > x) if higher_wins else (y < x) for x, y in zip(a, b))
        print(f"{name:<28} A {ma:14.4f} B {mb:14.4f} B/A {ratio:7.4f}"
              f" B wins {wins}/{len(a)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--trace", action="store_true", help="per-layer metrics")
    ap.add_argument("--overhead", action="store_true",
                    help="alternate untraced and traced runs and compare")
    ap.add_argument("--ab", nargs=2, metavar=("TREE_A", "TREE_B"),
                    help="two checkouts to compare, built separately")
    args = ap.parse_args()

    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    trees = args.ab or [here]
    binaries = [build(t) for t in trees]
    seeds = [args.first_seed + i for i in range(args.runs)]
    for workload in args.workloads.split(","):
        if args.overhead:
            plain, traced = [], []
            for i, seed in enumerate(seeds):
                for trace in ([False, True] if i % 2 == 0 else [True, False]):
                    r = run_once(trees[0], binaries[0], workload, seed, args.seconds, trace)
                    (traced if trace else plain).append(r)
            print(f"== {workload}: tracing overhead (traced / untraced median) ==")
            for name in plain[0]["metrics"]:
                a = statistics.median(r["metrics"][name]["value"] for r in plain)
                b = statistics.median(r["metrics"]["traced." + name]["value"] for r in traced)
                print(f"{name:<28} untraced {a:14.4f} traced {b:14.4f} ratio {b / a:7.4f}")
            continue
        results = [[] for _ in trees]
        for i, seed in enumerate(seeds):
            order = range(len(trees)) if i % 2 == 0 else reversed(range(len(trees)))
            for k in order:
                results[k].append(run_once(trees[k], binaries[k], workload, seed,
                                           args.seconds, args.trace))
        for k, tree in enumerate(trees):
            report(f"{workload} [{tree}]", results[k])
        if len(trees) == 2:
            compare(workload, results[0], results[1])


if __name__ == "__main__":
    main()
