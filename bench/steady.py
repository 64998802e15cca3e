"""Steadiness check: run each workload repeatedly and compare spreads to bounds.

    python3 bench/steady.py                      # seeds 1..10
    python3 bench/steady.py --first-seed 101 --json runs.json

Every workload of BENCHMARK.json runs RUNS times, each run a fresh
`bench/run.py` process with the next seed and the run length from
BENCHMARK.json. For every end-to-end metric it prints the median,
the quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median
against the metric's bound, and for every workload the share of failed
operations in each run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUNS = 10


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--json", default=None, help="also write every run's result to this file")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {}
    steady = True
    for wl in (w["name"] for w in spec["workloads"]):
        results = []
        for i in range(RUNS):
            seed = args.first_seed + i
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", wl, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{wl} seed {seed}: exit code {proc.returncode}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["seed"] = seed
            results.append(res)
            vals = " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
            print(f"{wl} seed={seed} correct={res['correct']} failed={res['failed']}/{res['attempted']} {vals}",
                  flush=True)
        record[wl] = results
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{wl}: failed share {shares}; all correct: {all(r['correct'] for r in results)}")
        steady &= len(shares) == 1 and all(r["correct"] for r in results)
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            verdict = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            steady &= spread <= bound
            print(f"  {name:16s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound:6.3f}  {verdict}")
        print()
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
