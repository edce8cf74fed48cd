#!/usr/bin/env python3
"""Run the benchmark over several seeds and print every metric by name and unit.

    python3 perfbench/report.py                      # one run per workload
    python3 perfbench/report.py --runs 10 --trace    # steadiness table, then layers

For each workload and end-to-end metric it prints the median of the runs,
the quartiles, and their spread (q3 - q1) / median beside the metric's bound
from BENCHMARK.json; a spread below a third of the bound counts as steady.
With --trace it adds one traced run per workload and prints the per-layer
metrics that the workload moved (nonzero), each with its unit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartile_row(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        results = [run_once(workload, args.seed0 + i, args.seconds, 0) for i in range(args.runs)]
        print(f"\n## {workload}: {args.runs} runs of {args.seconds} s, "
              f"seeds {args.seed0}..{args.seed0 + args.runs - 1}\n")
        print("| run | " + " | ".join(f"{m} ({u})" for m, u in
                                       ((m, v["unit"]) for m, v in results[0]["metrics"].items()))
              + " | attempted | failed |")
        print("|---" * (len(results[0]["metrics"]) + 3) + "|")
        for i, res in enumerate(results):
            cells = [f"{v['value']:.6g}" for v in res["metrics"].values()]
            print(f"| {args.seed0 + i} | " + " | ".join(cells)
                  + f" | {res['attempted']} | {res['failed']} |")
        print("\n| metric | unit | median | q1 | q3 | spread | bound | steady |")
        print("|---|---|---|---|---|---|---|---|")
        for name, first in results[0]["metrics"].items():
            med, q1, q3, spread = quartile_row([r["metrics"][name]["value"] for r in results])
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady &= ok
            print(f"| {name} | {first['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                  f"{spread:.4f} | {bounds[name]} | {'yes' if ok else 'NO'} |")
        if args.trace:
            res = run_once(workload, args.seed0, args.seconds, 1)
            print(f"\n{workload} traced run (seed {args.seed0}), nonzero per-layer metrics:\n")
            print("| metric | value | unit |\n|---|---|---|")
            for name, v in res["metrics"].items():
                if v["value"]:
                    print(f"| {name} | {v['value']:.6g} | {v['unit']} |")
    print(f"\nall end-to-end spreads below a third of their bounds: {'yes' if steady else 'NO'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
