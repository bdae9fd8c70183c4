"""Time the solvers at a size far above the benchmark's m = 250 and 300.

    python3 scripts/time_large_m.py [--m 10000] [--seed 1] [--repeats 3]

Imports choresched from this checkout's src/ and prints one JSON object with
the best of --repeats wall-clock times, in seconds, of:

- graph_s: build_conflict_graph alone on the chores of the two-agent
  instance random_interval_instance(Random(seed), 2, m);
- sequence_s: interval_sequence_ef1 on a fresh copy of that instance,
  conflict-graph build included;
- select_s: select_ef1 on that sequence;
- ef2_s: interval_sequence_ef2 with its completion hints on another fresh
  copy;
- load_s: io.load_instance of that instance's file alone;
- cli_solve_s: cli.main(["solve", FILE, "--format", "json"]) in-process,
  the load included;
- cli_process_s: the same command in a new interpreter, start-up included;
- bounded_components_solve_s and dichotomous_path_solve_s: the in-process
  solve of the file `choresched generate --kind bounded-components` and
  `--kind random-dichotomous-path` write for n = 50 agents, m chores and the
  same seed, and bounded_components_load_s and dichotomous_path_load_s the
  io.load_instance of those files alone;
- dichotomous_path_n5_solve_s and _load_s: the same dichotomous-path solve
  and load for n = 5 agents, where the triple meta agent picks 3/5 of the
  chores and splits them among its three members.

It also prints the step count, the SHA-256 of each solve output (so runs on
two checkouts can be compared for byte identity), and peak_rss_mib: the peak
resident set size in MiB of this process after all in-process stages
("in_process") and of the new interpreter behind cli_process_s
("cli_process").
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from choresched import cli  # noqa: E402
from choresched.core import Instance, build_conflict_graph  # noqa: E402
from choresched.generate import random_interval_instance  # noqa: E402
from choresched.io import load_instance, save_instance  # noqa: E402
from choresched.two_agent import interval_sequence_ef1, interval_sequence_ef2, select_ef1  # noqa: E402


def best_time(repeats: int, fn):
    """The fastest of `repeats` calls of fn, and the last call's result."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


N_AGENT_RUNS = (
    ("bounded_components", "bounded-components", 50),
    ("dichotomous_path", "random-dichotomous-path", 50),
    ("dichotomous_path_n5", "random-dichotomous-path", 5),
)


def peak_rss_mib(who: int) -> float:
    """Peak resident set size in MiB (Linux reports ru_maxrss in KiB)."""
    return round(resource.getrusage(who).ru_maxrss / 1024, 1)


def solve_in_process(path: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["solve", path, "--format", "json"])
    return out.getvalue()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    inst = random_interval_instance(random.Random(args.seed), 2, args.m)
    graph_s, _ = best_time(args.repeats, lambda: build_conflict_graph(inst.chores))
    sequence_s, seq = best_time(
        args.repeats,
        lambda: interval_sequence_ef1(Instance(2, inst.chores, inst.valuations)),
    )
    select_s, _ = best_time(args.repeats, lambda: select_ef1(seq, inst))
    ef2_s, _ = best_time(
        args.repeats,
        lambda: interval_sequence_ef2(Instance(2, inst.chores, inst.valuations)),
    )

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.json")
        save_instance(inst, path)
        load_s, _ = best_time(args.repeats, lambda: load_instance(path))
        cli_solve_s, output = best_time(args.repeats, lambda: solve_in_process(path))
        command = [sys.executable, "-m", "choresched.cli", "solve", path, "--format", "json"]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        cli_process_s, _ = best_time(
            args.repeats, lambda: subprocess.run(command, env=env, check=True, capture_output=True)
        )
        report = {
            "m": args.m,
            "seed": args.seed,
            "steps": len(seq),
            "graph_s": round(graph_s, 4),
            "sequence_s": round(sequence_s, 4),
            "select_s": round(select_s, 4),
            "ef2_s": round(ef2_s, 4),
            "load_s": round(load_s, 4),
            "cli_solve_s": round(cli_solve_s, 4),
            "cli_process_s": round(cli_process_s, 4),
            "solve_sha256": hashlib.sha256(output.encode()).hexdigest(),
        }
        for name, kind, n in N_AGENT_RUNS:
            path = os.path.join(tmp, f"{name}.json")
            generate = ["generate", "--kind", kind, "--n", str(n), "--m", str(args.m)]
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(generate + ["--seed", str(args.seed), "--out", path])
            load_s, _ = best_time(args.repeats, lambda: load_instance(path))
            solve_s, output = best_time(args.repeats, lambda: solve_in_process(path))
            report[f"{name}_load_s"] = round(load_s, 4)
            report[f"{name}_solve_s"] = round(solve_s, 4)
            report[f"{name}_sha256"] = hashlib.sha256(output.encode()).hexdigest()

    report["peak_rss_mib"] = {
        "in_process": peak_rss_mib(resource.RUSAGE_SELF),
        "cli_process": peak_rss_mib(resource.RUSAGE_CHILDREN),
    }
    print(json.dumps(report))


if __name__ == "__main__":
    main()
