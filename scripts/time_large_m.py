"""Time the solvers at a size far above the benchmark's m = 250 and 300.

    python3 scripts/time_large_m.py [--m 10000] [--seed 1] [--repeats 3]

Imports choresched from this checkout's src/ and prints one JSON object with
the best of --repeats wall-clock times, in seconds, of:

- graph_s: build_conflict_graph alone on the chores of the two-agent
  instance random_interval_instance(Random(seed), 2, m);
- classify_s: classify_chores on those chores and the graph built there;
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
  chores and splits them among its three members;
- bounded_components_n1000_solve_s and _load_s: the bounded-components solve
  and load at n = 1000 agents and m = 1000 chores whatever --m says, where
  every agent reads the one shared value vector and an O(n^2) envy check
  would stand out.

It also prints the step count, the SHA-256 of each solve output (so runs on
two checkouts can be compared for byte identity), and peak_rss_mib: the peak
resident set size in MiB of one fresh interpreter per stage, each started
from a small helper interpreter that reports the peak of the one child it
waited for.  "after_graph", "after_classify" and "after_sequence" regenerate
the two-agent instance from the seed and run the graph_s stage, the graph_s
and classify_s stages, or the sequence_s stage (which builds its own graph);
"cli_process" is one more run of cli_process_s's command.  A peak read in
this process would also hold whatever the earlier stages left behind, and
would move with the code's memory layout more than with the work.  Each
n-agent run adds the peak of one more run of its solve command, under its
own name.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
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
from choresched.two_agent import (  # noqa: E402
    classify_chores,
    interval_sequence_ef1,
    interval_sequence_ef2,
    select_ef1,
)


def best_time(repeats: int, fn):
    """The fastest of `repeats` calls of fn, and the last call's result."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


# (name, generator kind, agents, chores or None for --m)
N_AGENT_RUNS = (
    ("bounded_components", "bounded-components", 50, None),
    ("dichotomous_path", "random-dichotomous-path", 50, None),
    ("dichotomous_path_n5", "random-dichotomous-path", 5, None),
    ("bounded_components_n1000", "bounded-components", 1000, 1000),
)


# Runs the command in its arguments and prints its peak RSS in KiB.
PEAK_HELPER = (
    "import resource, subprocess, sys\n"
    "subprocess.run(sys.argv[1:], check=True, capture_output=True)\n"
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
)


# Regenerates the two-agent instance from m and the seed and runs one stage.
STAGE = (
    "import random, sys\n"
    "from choresched.core import build_conflict_graph\n"
    "from choresched.generate import random_interval_instance\n"
    "from choresched.two_agent import classify_chores, interval_sequence_ef1\n"
    "stage, m, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])\n"
    "inst = random_interval_instance(random.Random(seed), 2, m)\n"
    "if stage == 'sequence':\n"
    "    interval_sequence_ef1(inst)\n"
    "else:\n"
    "    graph = build_conflict_graph(inst.chores)\n"
    "    if stage == 'classify':\n"
    "        classify_chores(inst.chores, graph)\n"
)


def child_peak_rss_mib(command: list[str], env: dict[str, str]) -> float:
    """Peak resident set size in MiB of one run of command.

    A child started from this process would report this process's peak, not
    its own: subprocess starts it by vfork, and Linux carries the high-water
    RSS of the shared address space through exec.  The helper's own peak is
    that of a bare interpreter, below any solve's.
    """
    helper = [sys.executable, "-c", PEAK_HELPER, *command]
    kib = subprocess.run(helper, env=env, check=True, capture_output=True, text=True).stdout
    return round(int(kib) / 1024, 1)


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
    graph_s, graph = best_time(args.repeats, lambda: build_conflict_graph(inst.chores))
    classify_s, _ = best_time(args.repeats, lambda: classify_chores(inst.chores, graph))
    del graph
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
        peaks = {
            f"after_{stage}": child_peak_rss_mib(
                [sys.executable, "-c", STAGE, stage, str(args.m), str(args.seed)], env
            )
            for stage in ("graph", "classify", "sequence")
        }
        peaks["cli_process"] = child_peak_rss_mib(command, env)
        report = {
            "m": args.m,
            "seed": args.seed,
            "steps": len(seq),
            "graph_s": round(graph_s, 4),
            "classify_s": round(classify_s, 4),
            "sequence_s": round(sequence_s, 4),
            "select_s": round(select_s, 4),
            "ef2_s": round(ef2_s, 4),
            "load_s": round(load_s, 4),
            "cli_solve_s": round(cli_solve_s, 4),
            "cli_process_s": round(cli_process_s, 4),
            "solve_sha256": hashlib.sha256(output.encode()).hexdigest(),
        }
        for name, kind, n, m in N_AGENT_RUNS:
            path = os.path.join(tmp, f"{name}.json")
            generate = ["generate", "--kind", kind, "--n", str(n), "--m", str(m or args.m)]
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(generate + ["--seed", str(args.seed), "--out", path])
            load_s, _ = best_time(args.repeats, lambda: load_instance(path))
            solve_s, output = best_time(args.repeats, lambda: solve_in_process(path))
            report[f"{name}_load_s"] = round(load_s, 4)
            report[f"{name}_solve_s"] = round(solve_s, 4)
            report[f"{name}_sha256"] = hashlib.sha256(output.encode()).hexdigest()
            solve = [sys.executable, "-m", "choresched.cli", "solve", path, "--format", "json"]
            peaks[name] = child_peak_rss_mib(solve, env)

    report["peak_rss_mib"] = peaks
    print(json.dumps(report))


if __name__ == "__main__":
    main()
