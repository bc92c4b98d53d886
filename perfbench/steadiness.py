#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints each metric's median and
run-to-run spread (interquartile range as a share of the median, from
`statistics.quantiles(values, n=4)`), next to its bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steadiness.py --workload serve-mix --seeds 1-10 [--trace 1]
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    declared = bench["per_layer"] if args.trace == "1" else bench["end_to_end"]
    values = {m["name"]: [] for m in declared}
    shares = set()
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result {result}")
        shares.add(result["failed"] / result["attempted"])
        for m in declared:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"], (m, got)
            values[m["name"]].append(got["value"])
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']}",
              flush=True)

    print(f"failed share(s): {sorted(shares)}")
    print(f"{'metric':<26} {'median':>14} {'spread':>8} {'bound':>6}")
    for m in declared:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        bound = m.get("bound", "")
        print(f"{m['name']:<26} {med:>14.6g} {spread:>8.4f} {bound!s:>6}  "
              + " ".join(f"{x:.4g}" for x in v))


if __name__ == "__main__":
    main()
