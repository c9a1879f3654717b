#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs ``perfbench/run.py`` once per listed seed (one after another; a seed
listed several times runs several times), and for each
metric reports the median and the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the bound from BENCHMARK.json.  With --out, also writes
every run's result line to a JSON file.

Usage (from the repository root):
    python3 perfbench/spread.py --workload refine-mismatch --seeds 1-10 [--out F]
    python3 perfbench/spread.py --workload refine-mismatch --seeds 1,1,1,1,1  # one seed, repeated
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


def seed_list(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(results: list[dict], bounds: dict) -> list[dict]:
    rows = []
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / median if median else float("nan")
        rows.append({"name": name, "unit": results[0]["metrics"][name]["unit"],
                     "median": median, "q1": q1, "q3": q3, "spread": spread,
                     "bound": bounds.get(name)})
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="defaults to run_seconds from BENCHMARK.json")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = []
    for seed in seed_list(args.seeds):
        result = run_once(args.workload, seed, seconds)
        result["seed"] = seed
        results.append(result)
        print(f"seed {seed}: correct {result['correct']} attempted {result['attempted']} "
              f"failed {result['failed']}", flush=True)
    rows = summarize(results, bounds)
    print(f"{'metric':<44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for row in rows:
        bound = "" if row["bound"] is None else f"{row['bound']:.2f}"
        flag = ""
        if row["bound"] is not None and row["name"] != "setup_s":
            flag = "ok" if row["spread"] < row["bound"] / 3 else "WIDE"
        print(f"{row['name']:<44} {row['median']:>12.6g} {row['q1']:>12.6g} "
              f"{row['q3']:>12.6g} {row['spread']:>8.4f} {bound:>6} {flag}")
    if args.out is not None:
        args.out.write_text(json.dumps({"workload": args.workload, "seconds": seconds,
                                        "runs": results,
                                        "summary": rows}, indent=1), encoding="utf-8")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
