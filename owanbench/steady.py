#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly and summarize each metric.

usage: python3 owanbench/steady.py [--runs 10] [--seed0 1]
                                   [--workloads a,b] [--trace 0|1]
                                   [--seconds S]

Each run uses its own seed (seed0, seed0+1, ...) and, unless --seconds
overrides it, BENCHMARK.json's run_seconds. For every metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median.
With --trace 0 it marks every end-to-end metric whose spread is above a
third of its bound in BENCHMARK.json (setup_s excepted: only its median is
compared), and it checks that the failed share is the same in every run.
Raw results go to .bench_out/steady-<workload>-trace<t>.json.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "owanbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {p.returncode}:\n{p.stderr}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    ok = True
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            r = run_once(workload, args.seed0 + i, args.seconds, args.trace)
            results.append(r)
            print(f"  {workload} seed {args.seed0 + i}: correct={r['correct']}"
                  f" attempted={r['attempted']} failed={r['failed']}",
                  flush=True)
        (out_dir / f"steady-{workload}-trace{args.trace}.json").write_text(
            json.dumps(results, indent=1))
        print(f"{workload}: {args.runs} runs")
        shares = {r["failed"] / r["attempted"] for r in results}
        if len(shares) != 1 or not all(r["correct"] for r in results):
            print(f"  !! failed shares {sorted(shares)} or incorrect output")
            ok = False
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            mark = ""
            if args.trace == 0 and name != "setup_s":
                if spread > bounds[name] / 3:
                    mark = f"  !! above bound/3 ({bounds[name] / 3:.4f})"
                    ok = False
            print(f"  {name:32s} median {med:14.6f} {unit:6s} "
                  f"q1 {q1:14.6f} q3 {q3:14.6f} spread {spread:7.4f}{mark}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
