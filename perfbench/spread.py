"""Run the benchmark several times and report each metric's spread.

    python3 perfbench/spread.py --workload wide --seeds 1-10 [--seconds 20] [--trace 0]

For every metric it prints the median over the runs and the distance between
the first and third quartiles (statistics.quantiles, n=4) as a share of that
median, next to the bound from BENCHMARK.json.  Every run's result line is
appended to perfbench/_work/spread-<workload>-trace<T>.jsonl.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    log = HERE / "_work" / f"spread-{args.workload}-trace{args.trace}.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)

    results = []
    for seed in seed_list(args.seeds):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=600)
        wall = time.perf_counter() - started
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with log.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"seed": seed, "wall_s": wall, **result}) + "\n")
        results.append(result)
        print(f"seed {seed}: {wall:.1f} s, correct={result['correct']}, "
              f"failed={result['failed']}/{result['attempted']}", flush=True)

    print(f"{'metric':34s} {'median':>14s} {'spread':>8s} {'bound':>6s}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        bound = bounds.get(name)
        print(f"{name:34s} {statistics.median(values):>14.6g} {spread(values):>8.4f} "
              f"{'' if bound is None else bound:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
