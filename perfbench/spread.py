#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload explore --seeds 1 2 3 4 5 [--trace 0]

Run from the repository root. Each run is the `command` of BENCHMARK.json
with `--workload W --seed N --seconds <run_seconds> --trace T`. For every
metric it prints the median over the runs and the interquartile range as a
share of the median (quartiles as `statistics.quantiles(values, n=4)` gives
them), next to a third of the metric's bound: the spread the benchmark aims
to stay under. Per-run failures and exact-repeat digests are printed too.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out", help="append raw results (JSON lines) here")
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")

    values = {}
    digests = {}
    for seed in a.seeds:
        cmd = spec["command"] + [
            "--workload", a.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", a.trace,
        ]
        t = time.time()
        p = subprocess.run(cmd, capture_output=True, text=True, env=env)
        wall = time.time() - t
        digest = [l.rsplit("digest", 1)[1].strip()
                  for l in p.stderr.splitlines() if "digest" in l]
        if p.returncode != 0 or not p.stdout.strip():
            print(f"seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
            sys.exit(1)
        result = json.loads(p.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: {wall:.1f} s correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"digest {digest[-1] if digest else '-'}")
        if digest and digests.setdefault(seed, digest[-1]) != digest[-1]:
            print(f"seed {seed}: exact-repeat digest differs from its earlier run "
                  f"({digests[seed]}): counters did not repeat")
        if a.out:
            with open(a.out, "a") as f:
                f.write(json.dumps({"workload": a.workload, "seed": seed,
                                    "wall_s": wall, "result": result}) + "\n")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"{'metric':<26}{'median':>14}{'spread':>9}{'bound/3':>9}")
    for name, v in values.items():
        med = statistics.median(v)
        if len(v) >= 2 and med:
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = f"{(q3 - q1) / abs(med):9.3f}"
        else:
            spread = f"{'-':>9}"
        b = bounds.get(name)
        third = f"{b / 3:9.3f}" if b else ""
        flag = ""
        if b and spread.strip() != "-" and float(spread) > b / 3 and name != "setup_s":
            flag = "  <-- over"
        print(f"{name:<26}{med:14.4f}{spread}{third}{flag}")


if __name__ == "__main__":
    main()
