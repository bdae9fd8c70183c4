"""Benchmark for choresched: one workload per process, timed, checked and traced.

    python3 perfbench/run.py --workload two-agent-solve --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py            # every workload in turn, one process each

Every time is measured against the host's speed at that moment: a fixed
pure-Python kernel is timed between any two measurements, and a measurement
is divided by the faster of the two kernel times around it and multiplied by
the kernel's nominal time (see README.md).  A run sets up the corpus
SETUP_REPEATS times (import the library and the benchmark in a fresh
interpreter, generate the inputs, write the instance files, run one warm-up
op) and reports the median as ``setup_s``.  It then times whole rounds over
the corpus for about ``--seconds``.  In a round an op's time is the fastest of
its repeats; over the run it is the median of its rounds.  After timing,
every op's output is checked by verify.py, and every repeat's output must
equal the first's.

With ``--trace 1`` the same rounds run with spans installed (tracing.py) and
the run reports the per-layer metrics, each the median over rounds of a
round's total, and ``trace.ops_per_s``, the traced counterpart of
``ops_per_s``; the spans are written to perfbench/out/.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
NAMES = ("two-agent-solve", "two-agent-trace", "two-agent-monotone", "n-agent-solve", "oracle-exists")
SETUP_REPEATS = 15
MIN_ROUNDS = 3
# Within a round, an op shorter than this (20 ms) repeats (at most MAX_REPEATS times).
MIN_OP_NS = 20_000_000
MAX_REPEATS = 10
# The reference kernel: overlap bitmasks of fixed intervals, the same kind of
# work as a conflict-graph build, about 5 ms when the host is quick.  It
# shares no code with choresched or verify.py, so no edit there can move it.
KERNEL_NOMINAL_S = 0.005
_KERNEL_RNG = random.Random(0)
KERNEL_INTERVALS = [
    (start, start + _KERNEL_RNG.randint(1, 4))
    for start in (_KERNEL_RNG.randint(0, 1000) for _ in range(500))
]
# Stop starting rounds after this long even if MIN_ROUNDS is not reached, so
# a run always ends well inside its 180 s limit.
HARD_STOP_S = 120
# Run in a fresh interpreter: time the imports a CLI process makes before its
# first op (choresched, the benchmark's modules and what they pull in).
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; start = time.perf_counter_ns(); "
    "import workloads; print(time.perf_counter_ns() - start)"
)


def import_library():
    """Import choresched from this checkout's src/, never from anywhere else."""
    package = ROOT / "src" / "choresched"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import choresched

    if Path(choresched.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported choresched from {choresched.__file__}, not {package}")


def run_op(op, tracer):
    argument = op.prepare()
    gc.collect()
    if tracer is not None:
        index = tracer.begin("op")
    start = time.perf_counter_ns()
    try:
        output = op.run(argument)
    except Exception as exc:  # an op that raises counts as failed, the run goes on
        output = exc
    finally:
        elapsed = time.perf_counter_ns() - start
        if tracer is not None:
            tracer.finish(index)
    return output, elapsed


def kernel_ns():
    start = time.perf_counter_ns()
    masks = [0] * len(KERNEL_INTERVALS)
    for i, (s1, f1) in enumerate(KERNEL_INTERVALS):
        for j in range(i + 1, len(KERNEL_INTERVALS)):
            s2, f2 = KERNEL_INTERVALS[j]
            if s1 < f2 and s2 < f1:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return time.perf_counter_ns() - start


class HostSpeed:
    """The host's speed around each measurement, from kernel times taken between them.

    The host's speed drifts over stretches of seconds; a kernel timed right
    before and right after a measurement runs at the same speed, so their
    ratio does not drift (see README.md).
    """

    def __init__(self):
        self.kernel_times = [kernel_ns()]

    def nominal_s(self, elapsed_ns):
        """``elapsed_ns``, just measured, in seconds at the kernel's nominal speed."""
        self.kernel_times.append(kernel_ns())
        return elapsed_ns * KERNEL_NOMINAL_S / min(self.kernel_times[-2:])


def import_ns():
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), str(HERE)],
                          stdout=subprocess.PIPE, text=True, check=True)
    return int(proc.stdout)


def setup(build, seed, workdir):
    """Set up SETUP_REPEATS times; return the last corpus and the median time at nominal speed."""
    host = HostSpeed()
    times, corpus = [], None
    for _ in range(SETUP_REPEATS):
        corpus = None  # let the previous corpus go before building the next
        gc.collect()
        elapsed = import_ns()
        start = time.perf_counter_ns()
        corpus = build(seed, workdir)
        run_op(corpus[0], None)
        elapsed += time.perf_counter_ns() - start
        times.append(host.nominal_s(elapsed))
    # The benchmark's own objects (corpus, checks) live through every op;
    # freezing them keeps the collector's full passes as short as they are
    # in a fresh CLI process.
    gc.collect()
    gc.freeze()
    return corpus, statistics.median(times)


def time_rounds(corpus, seconds, tracer):
    """Run whole rounds over the corpus for about ``seconds``.

    After the first round, an op shorter than MIN_OP_NS runs several times in
    a row in every later round, and the round keeps its fastest repeat.
    Traced rounds run each op once, since their per-layer totals are sums
    over the corpus.
    """
    host = HostSpeed()
    samples = [[] for _ in corpus]  # per op: each round's fastest repeat, s at nominal speed
    first_ns = [None] * len(corpus)
    first_output = [None] * len(corpus)
    repeats = [1] * len(corpus)
    problems, layer_rounds = [], []
    attempted = failed = rounds = 0
    begin = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if tracer is not None:
            span_start, counts_before = len(tracer.start), tracer.counts.copy()
        for i, op in enumerate(corpus):
            fastest = None
            for _ in range(repeats[i]):
                output, elapsed = run_op(op, tracer)
                attempted += 1
                if isinstance(output, Exception) or op.failed(output):
                    failed += 1
                    detail = output if isinstance(output, Exception) else f"exit code {output[0]}"
                    problems.append(f"{op.label}: failed: {detail!r}")
                    break
                fastest = elapsed if fastest is None else min(fastest, elapsed)
                if first_output[i] is None:
                    first_output[i], first_ns[i] = output, elapsed
                elif output != first_output[i]:
                    problems.append(f"{op.label}: output changed between repeats")
            nominal = host.nominal_s(fastest or 0)  # times the kernel after a failed op too
            if fastest is not None:
                samples[i].append(nominal)
        if tracer is not None:
            counts = tracer.counts - counts_before
            layer_rounds.append(tracer.layer_metrics(span_start, len(tracer.start), counts))
        elif rounds == 0:
            repeats = [min(MAX_REPEATS, -(-MIN_OP_NS // t)) if t else 1 for t in first_ns]
        rounds += 1
        now = time.perf_counter()
        if now - begin > HARD_STOP_S:
            break
        if rounds >= MIN_ROUNDS and now - begin + (now - round_start) > seconds:
            break
    return {"samples": samples, "outputs": first_output, "problems": problems, "attempted": attempted,
            "failed": failed, "rounds": rounds, "layer_rounds": layer_rounds, "kernel_ns": host.kernel_times}


def measure(workload, seed, seconds, trace):
    import_library()
    import verify_selftest
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir()
    tracer = None
    try:
        corpus, setup_s = setup(workloads.WORKLOADS[workload], seed, workdir)
        if trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        try:
            timed = time_rounds(corpus, seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = timed["problems"]
        for op, output in zip(corpus, timed["outputs"]):
            if output is None:
                continue
            try:
                problems += [f"{op.label}: {p}" for p in op.check(output)]
            except (ValueError, KeyError, TypeError) as exc:
                problems.append(f"{op.label}: unreadable output: {exc!r}")
        problems += verify_selftest.failures()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    times = [statistics.median(s) for s in timed["samples"] if s]
    ops_per_s = len(times) / sum(times) if times else 0.0
    if tracer is not None:
        layer_rounds = timed["layer_rounds"]
        # median_low: each figure is one round's total, and counts stay whole.
        metrics = {name: statistics.median_low(r[name] for r in layer_rounds) for name in layer_rounds[0]}
        # The same estimator as the untraced ops_per_s, so the two give the tracing overhead.
        metrics["trace.ops_per_s"] = ops_per_s
        units = tracing.PER_LAYER
        trace_path = OUT / f"trace-{workload}-seed{seed}.json"
        tracer.write(trace_path, {"workload": workload, "seed": seed, "ops": [op.label for op in corpus],
                                  "per_round": layer_rounds})
        print(f"spans: {len(tracer.start)} written to {trace_path.relative_to(ROOT)}")
    else:
        metrics = {
            "ops_per_s": ops_per_s,
            "op_p50_s": statistics.median(times) if times else 0.0,
            "peak_rss_mib": peak_rss_mib,
            "setup_s": setup_s,
        }
        units = {"ops_per_s": "1/s", "op_p50_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}
    kernel_ms = sorted(t * 1e-6 for t in timed["kernel_ns"])
    print(f"{workload}: seed {seed}, {len(corpus)} ops, {timed['rounds']} rounds, "
          f"{timed['attempted']} runs, {timed['failed']} failed, {len(problems)} problems; "
          f"kernel {kernel_ms[0]:.3g} to {kernel_ms[-1]:.3g} ms, median {statistics.median(kernel_ms):.3g} ms")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6g} {units[name]}")
    return {
        "correct": not problems,
        "attempted": timed["attempted"],
        "failed": timed["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_all(args):
    """Each workload in its own process, one after another."""
    results = {}
    for workload in NAMES:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {workload} exited with code {proc.returncode}")
        results[workload] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES, help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload is None:
        result = run_all(args)
    else:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
