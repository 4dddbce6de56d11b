#!/usr/bin/env python3
"""Run one workload of the end-to-end stream benchmark and print its result.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds the benchmark crate
(`e2ebench/Cargo.toml`, release, into `$CARGO_TARGET_DIR` or
`e2ebench/target`), runs it with the workload's parameters from
`e2ebench/workloads.json`, and prints the result as its last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With `--trace 0` the metrics are the `end_to_end` list of BENCHMARK.json,
with `--trace 1` the `per_layer` list; units come from BENCHMARK.json.
The script exits non-zero without printing a result when the build or
the run fails, or when a listed metric is missing or not finite.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run measures for --seconds plus its set-up and checks; this is the
# ceiling on one run of the built binary.
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        cfg = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wl = cfg["workloads"].get(args.workload)
    if wl is None:
        fail(f"unknown workload {args.workload!r}", 2)

    build = subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--offline",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed", build.returncode)

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    cmd = [
        os.path.join(target, "release", "e2ebench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", os.path.join(HERE, "out"),
    ]
    for key, value in wl["params"].items():
        cmd += ["--set", f"{key}={value}"]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        fail(f"run failed with exit code {run.returncode}")

    result = json.loads(lines[-1])
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in bench[kind]:
        value = result["metrics"].get(m["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {m['name']} missing or not finite: {value!r}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for line in lines[:-1]:
        print(line)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
