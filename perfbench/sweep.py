#!/usr/bin/env python3
"""Run every workload for several seeds and summarise the spread.

    python3 perfbench/sweep.py --seeds 1,2,3,4,5 --seconds 30

Each (seed, workload) is one run.py run. The workload order alternates
from one seed to the next, so no workload always runs first or last. For
every end-to-end metric it prints the median over the seeds and the interquartile range as a share of the
median, the spread BENCHMARK.json's bounds are judged against.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("collect", "study", "impaired")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True,
                    help="comma-separated seeds, one run per workload each")
    ap.add_argument("--seconds", type=float, default=30)
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    values = {w: {} for w in WORKLOADS}
    units = {}
    ok = True
    for i, seed in enumerate(seeds):
        for w in WORKLOADS if i % 2 == 0 else WORKLOADS[::-1]:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {proc.returncode}", flush=True)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"]
            shown = []
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
                shown.append(f"{name}={m['value']:.6g}")
            print(f"{w} seed {seed} correct={result['correct']} "
                  f"studies={result['attempted']} failed={result['failed']} "
                  + " ".join(shown),
                  flush=True)

    print(f"\n{'workload':<9} {'metric':<28} {'median':>12} {'unit':<7} "
          f"{'iqr/median':>10}")
    for w in WORKLOADS:
        for name, v in values[w].items():
            med = statistics.median(v)
            spread = "-"
            if len(v) >= 2 and med:
                q = statistics.quantiles(v, n=4)
                spread = f"{(q[2] - q[0]) / abs(med):.4f}"
            print(f"{w:<9} {name:<28} {med:>12.6g} {units[name]:<7} "
                  f"{spread:>10}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
