"""Steadiness mode: run workloads N times and summarise each metric.

    python3 perfbench/steady.py [--workload NAME ...] [--runs N] [--seconds S]

Each run is a separate ``run.py`` process; run i uses seed i (1..N). For
every metric this prints the sample count, the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
(Q3 - Q1) / median; for every workload, the share of failed operations in
each run. The machine facts come first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import WORKLOADS, machine_facts

HERE = Path(__file__).resolve().parent


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan")}


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="repeat for several; default all")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35.0)
    args = parser.parse_args(argv)

    print(f"machine: {json.dumps(machine_facts())}")
    for workload in args.workload or sorted(WORKLOADS):
        runs = []
        for seed in range(1, args.runs + 1):
            result = run_once(workload, seed, args.seconds)
            runs.append(result)
            print(f"{workload} seed {seed}: correct {result['correct']}, "
                  f"{result['failed']}/{result['attempted']} failed, "
                  f"wall {result['wall_s']:.1f} s, " + ", ".join(
                      f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        for name, metric in runs[0]["metrics"].items():
            s = summarize([r["metrics"][name]["value"] for r in runs])
            print(f"{workload} {name}: n {s['n']}, median {s['median']:.6g} {metric['unit']}, "
                  f"q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, spread {s['spread']:.4f}")
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{workload}: failed shares {shares}, all correct "
              f"{all(r['correct'] for r in runs)}, "
              f"longest run {max(r['wall_s'] for r in runs):.1f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
