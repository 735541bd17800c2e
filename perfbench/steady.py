#!/usr/bin/env python3
"""Run one workload N times and report how steady its metrics are.

    python3 perfbench/steady.py --workload plan_cold --runs 10 --seed 1
    python3 perfbench/steady.py --workload plan_cold --runs 10 --same-seed

Runs perfbench/run.py N times with the run length from BENCHMARK.json,
and prints each end-to-end metric's median, first and third quartiles,
and spread ((q3 - q1) / median) next to the bound BENCHMARK.json fixes
for it. By default run i uses seed + i, so the spread holds both seed
variance and host noise; with --same-seed every run uses the same seed,
so the spread is host noise alone. A metric is steady when its spread
stays below a third of its bound. Exits 1 if a run fails or its result
reports wrong outputs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1,
                        help="first seed; run i uses seed + i")
    parser.add_argument("--same-seed", action="store_true",
                        help="run every time with --seed itself")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    ok = True
    for i in range(args.runs):
        seed = args.seed if args.same_seed else args.seed + i
        try:
            result = run_once(args.workload, seed, seconds)
        except RuntimeError as e:
            print(f"run failed: {e}", file=sys.stderr)
            return 1
        ok = ok and result["correct"] and result["failed"] == 0
        for name, series in values.items():
            series.append(result["metrics"][name]["value"])
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}  " +
              "  ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()),
              flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        med = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = metric["bound"]
        verdict = ("steady" if spread < bound / 3 else
                   "within bound" if spread <= bound else "UNSTEADY")
        print(f"{metric['name']:<14} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.2%} {bound:>6.0%}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
