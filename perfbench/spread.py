#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload wide-fleet --seeds 1-10 [--trace 0] \
        [--seconds 30] [--json OUT]

For each metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread: the distance between
the first and third quartile as a share of the median.  The benchmark's
bounds in BENCHMARK.json only mean something when the spread of each
end-to-end metric stays well below its bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write the per-seed values and summary here")
    args = parser.parse_args()

    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        env = json.loads(lines[0].split(":", 1)[1])
        runs.append({"seed": seed, "result": result})
        values = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {values}", flush=True)

    summary = {}
    for name, first in runs[0]["result"]["metrics"].items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                         "spread": spread}
        print(f"{name:<42} median {median:.6g} {first['unit']}  "
              f"q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}")
    if args.json:
        env.pop("seed")
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
             "environment": env, "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
