#!/usr/bin/env python3
"""Run workloads k times with consecutive seeds and summarize each metric.

    python3 e2ebench/repeat.py [--workload NAME ...] [--runs 10] [--seed0 1]

Run from the repository root. For every workload (default: all of
BENCHMARK.json) this runs `e2ebench/run.py --trace 0` `--runs` times for
BENCHMARK.json's `run_seconds`, with seeds `seed0 .. seed0 + runs - 1`,
and prints, per end-to-end metric, the median, the first and third
quartiles (`statistics.quantiles(values, n=4)`), the spread
(Q3 - Q1) / median and the bound from BENCHMARK.json, marked `ok` when
the spread stays below a third of the bound and `WIDE` otherwise.
Also prints error_rate = failed / attempted over the runs. Exits
non-zero if any run fails or reports incorrect output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    bad = False
    for wl in args.workload:
        values, attempted, failed = {}, 0, 0
        for seed in range(args.seed0, args.seed0 + args.runs):
            run = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"],
                stdout=subprocess.PIPE, text=True)
            if run.returncode != 0:
                print(f"{wl} seed {seed}: run failed ({run.returncode})")
                bad = True
                continue
            res = json.loads(run.stdout.strip().splitlines()[-1])
            attempted += res["attempted"]
            failed += res["failed"]
            bad |= not res["correct"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()
                if k in bounds), flush=True)
        print(f"\n== {wl}: {args.runs} runs, error_rate "
              f"{failed / max(attempted, 1):.3g} ({failed}/{attempted})")
        print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds[name]
            mark = "ok" if spread < bound / 3 else "WIDE"
            print(f"{name:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound:>6} {mark}")
        print()
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
