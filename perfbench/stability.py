"""Run-to-run spread of the benchmark: one run per seed, per workload.

    python3 perfbench/stability.py --seeds 1-10 --label set-a
    python3 perfbench/stability.py --workloads oracle-exists --seeds 1-5 --label probe

Runs run.py once per (workload, seed), one process at a time, and prints per
metric the median over seeds and the spread: the distance between the first
and third quartiles (statistics.quantiles, n=4) as a share of the median.
Raw results go to perfbench/out/stability-<label>.json.
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
sys.path.insert(0, str(HERE))
from run import NAMES, OUT  # noqa: E402


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=NAMES, default=list(NAMES))
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="latest")
    args = parser.parse_args()

    results = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"], result["wall_s"] = seed, time.perf_counter() - start
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}"
                  f"/{result['attempted']} wall {result['wall_s']:.1f} s", flush=True)
        results[workload] = runs

    OUT.mkdir(exist_ok=True)
    (OUT / f"stability-{args.label}.json").write_text(json.dumps(results, indent=1))
    print("\n| workload | metric | median | q1 | q3 | spread |")
    print("|---|---|---|---|---|---|")
    for workload, runs in results.items():
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            unit = runs[0]["metrics"][name]["unit"]
            print(f"| {workload} | {name} ({unit}) | {statistics.median(values):.5g} | {q1:.5g} | {q3:.5g} "
                  f"| {spread(values) if len(values) > 1 else 0:.1%} |")


if __name__ == "__main__":
    main()
