"""The five workloads: how each corpus is generated, run and checked.

A corpus is a list of ops.  Each op has an untimed ``prepare`` step (it hands
back the argv or a freshly built Instance, so no cached conflict graph
carries over between repeats), a timed ``run`` step that calls a public
entry point of choresched, and a ``check`` step that judges the output with
the independent code in verify.py.

Every random input comes from ``choresched.generate`` driven by a
``random.Random`` whose seed string names the workload, the run's seed and
the op's slot, so one seed always gives one corpus.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from choresched import Instance, MonotoneValuations, cli, generate, path_instance, solve_two_agents
from choresched import io as fileio

import verify


@dataclass
class Op:
    label: str
    prepare: Callable[[], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any], list]
    ok_codes: tuple = field(default=(0,))

    def failed(self, output) -> bool:
        """An op fails when the CLI exits with a code outside ok_codes."""
        return isinstance(output, tuple) and output[0] not in self.ok_codes


def _rng(workload, seed, *slot):
    return random.Random("/".join(str(x) for x in (workload, seed) + slot))


def _intervals(instance):
    return [(c.start, c.finish) for c in instance.chores]


def call_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def _cli_op(label, argv, check, ok_codes=(0,)):
    return Op(label, prepare=lambda: argv, run=call_cli, check=check, ok_codes=ok_codes)


def _write(instance, workdir, name):
    path = Path(workdir) / f"{name}.json"
    fileio.save_instance(instance, path)
    return str(path)


# ---------------------------------------------------------------------------
# Checks on CLI output.
# ---------------------------------------------------------------------------


def _solve_check(instance, complete):
    intervals, table, n = _intervals(instance), instance.valuations.table, instance.n

    def check(output):
        _, text = output
        payload = json.loads(text)
        assignment = verify.parse_assignment(payload["schedule"]["assignment"], len(intervals), n)
        problems = verify.feasibility_problems(assignment, intervals, n)
        if not problems:
            problems += verify.maximality_problems(assignment, intervals, n)
        problems += verify.ef1_additive_problems(assignment, table)
        if complete:
            problems += verify.completeness_problems(assignment)
        if payload["ef1"] is not True or payload["maximal"] is not True:
            problems.append("solve reported its own result as not EF1 or not maximal")
        return problems

    return check


def _sequence_check(instance):
    intervals = _intervals(instance)

    def check(output):
        _, text = output
        steps = [
            (s["phase"], s["colors"], verify.parse_assignment(s["assignment"], len(intervals), 2))
            for s in json.loads(text)["steps"]
        ]
        return verify.trace_problems(steps, intervals)

    return check


def _exists_check(instance, criterion, must_exist):
    intervals, table, n = _intervals(instance), instance.valuations.table, instance.n

    def check(output):
        code, text = output
        payload = json.loads(text)
        if payload["exists"] != (code == 0) or payload["exists"] != (payload["witness"] is not None):
            return ["exit code, 'exists' and 'witness' disagree"]
        if not payload["exists"]:
            if must_exist:
                return [f"no {criterion} witness, yet one always exists here"]
            return verify.none_problems(criterion, intervals, table)
        witness = verify.parse_assignment(payload["witness"]["assignment"], len(intervals), n)
        return verify.witness_problems(criterion, witness, intervals, table)

    return check


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------

# One size for every instance: the median op is then the median of many
# instances of one kind, not the edge between two size groups.
TWO_AGENT_M = 250
TWO_AGENT_INSTANCES = 15
TRACE_INSTANCES = 12


def two_agent_solve(seed, workdir):
    ops = []
    for k in range(TWO_AGENT_INSTANCES):
        inst = generate.random_interval_instance(_rng("two-agent-solve", seed, k), 2, TWO_AGENT_M)
        path = _write(inst, workdir, f"solve-{k}")
        ops.append(_cli_op(f"solve m={TWO_AGENT_M} #{k}", ["solve", path, "--format", "json"],
                           _solve_check(inst, complete=False)))
    return ops


def two_agent_trace(seed, workdir):
    ops = []
    for k in range(TRACE_INSTANCES):
        inst = generate.random_interval_instance(_rng("two-agent-trace", seed, k), 2, TWO_AGENT_M)
        path = _write(inst, workdir, f"sequence-{k}")
        ops.append(_cli_op(f"sequence m={TWO_AGENT_M} #{k}", ["sequence", path, "--format", "json"],
                           _sequence_check(inst)))
    return ops


# Monotone families.  Each maps (agent, frozenset of chore ids) to a value <= 0
# and never decreases when a chore is removed.


def workday_span(chores, table):
    def value(agent, bundle):
        if not bundle:
            return 0
        return min(chores[c].start for c in bundle) - max(chores[c].finish for c in bundle)

    return value


def worst_chore_times_count(chores, table):
    def value(agent, bundle):
        if not bundle:
            return 0
        row = table[agent]
        return min(row[c] for c in bundle) * len(bundle)

    return value


def additive_minus_squared_count(chores, table):
    def value(agent, bundle):
        row = table[agent]
        return sum(row[c] for c in bundle) - len(bundle) ** 2

    return value


# (name, family, lowest chore value, {m: instances}).  Most instances have
# m = 80, so the median op falls well inside that block.  The worst-chore
# family sends about 1 op in 200 at m = 80 into check_efk's exhaustive
# minimal-removal search for 10^4 to 5*10^4 queries (up to 0.16 s, ten times
# the median op).  Its values span [-1000, 0] and its sizes stop at 80: with
# the generator's default [-10, 0], or at m = 120, ties among worst chores let
# one op reach 2.87 million queries and 20 s, which no run length averages out
# (see README.md).
MONOTONE_FAMILIES = (
    ("span", workday_span, -10, {40: 4, 80: 16, 120: 4}),
    ("worst", worst_chore_times_count, -1000, {40: 4, 60: 4, 80: 16}),
    ("addsq", additive_minus_squared_count, -10, {40: 4, 80: 16, 120: 4}),
)


def _monotone_op(label, chores, value):
    m = len(chores)
    intervals = [(c.start, c.finish) for c in chores]

    def prepare():
        return Instance(n=2, chores=chores, valuations=MonotoneValuations(2, m, value))

    def check(schedule):
        assignment = list(schedule.assignment)
        problems = verify.feasibility_problems(assignment, intervals, 2)
        if not problems:
            problems += verify.maximality_problems(assignment, intervals, 2)
        return problems + verify.ef1_monotone_problems(assignment, value, 2)

    return Op(label, prepare=prepare, run=solve_two_agents, check=check)


def two_agent_monotone(seed, workdir):
    ops = []
    for name, family, vmin, sizes in MONOTONE_FAMILIES:
        for m, count in sizes.items():
            for k in range(count):
                rng = _rng("two-agent-monotone", seed, name, m, k)
                inst = generate.random_interval_instance(rng, 2, m, vmin=vmin)
                value = family(inst.chores, inst.valuations.table)
                ops.append(_monotone_op(f"{name} m={m} #{k}", inst.chores, value))
    return ops


N_AGENT_SIZES = (200, 300)
N_AGENT_COUNTS = (6, 50)
N_AGENT_PER_SIZE = 2


def n_agent_solve(seed, workdir):
    ops = []
    for m in N_AGENT_SIZES:
        for n in N_AGENT_COUNTS:
            for kind in ("dichotomous-path", "bounded-components"):
                for k in range(N_AGENT_PER_SIZE):
                    rng = _rng("n-agent-solve", seed, kind, n, m, k)
                    if kind == "dichotomous-path":
                        inst = generate.random_dichotomous_path_instance(rng, n, m)
                    else:
                        inst = generate.random_bounded_components_instance(rng, n, m)
                    path = _write(inst, workdir, f"{kind}-{n}-{m}-{k}")
                    ops.append(_cli_op(f"{kind} n={n} m={m} #{k}", ["solve", path, "--format", "json"],
                                       _solve_check(inst, complete=True)))
    return ops


# The paper's impossibility instances: two agents with identical values on a
# path, where no maximal schedule meets the criterion.
GOLDEN = (
    ("efx", (-1, -1, -1, -4)),
    ("ef1+po", (-2, -10, -1, -10, -2)),
    ("ef1+complete", (-1, -3, -1, -3)),
)
# (criterion, generator, {(n, m): instances}).  ef1+po compares every
# maximal schedule with every other, so its cost grows with the square of
# their number.  On interval instances of one size that number varies
# tenfold, on a path it is fixed by (n, m), so ef1+po runs on paths.  Its
# 0.02 to 0.03 s ops are the majority, so the median op falls among them
# rather than on the edge of the cheap, early-exit queries.  ef1+complete
# mostly answers "none" on interval instances, after a full enumeration.
ORACLE_QUERIES = (
    ("ef1", generate.random_interval_instance, {(2, 8): 1, (2, 12): 1, (3, 6): 1, (3, 8): 1}),
    ("efx", generate.random_interval_instance, {(2, 8): 1, (2, 12): 1, (3, 6): 1, (3, 8): 1}),
    ("ef1+complete", generate.random_interval_instance, {(2, 8): 2, (2, 10): 2, (3, 6): 2, (3, 8): 2}),
    ("ef1+po", generate.random_path_instance, {(2, 10): 24, (3, 7): 8}),
)


def oracle_exists(seed, workdir):
    ops = []
    for criterion, row in GOLDEN:
        inst = path_instance([row, row])
        path = _write(inst, workdir, f"golden-{criterion}")
        ops.append(_cli_op(f"golden {criterion}", ["exists", path, "--criterion", criterion, "--format", "json"],
                           _golden_check(inst, criterion), ok_codes=(0, 1)))
    for criterion, make, sizes in ORACLE_QUERIES:
        for (n, m), count in sizes.items():
            for k in range(count):
                inst = make(_rng("oracle-exists", seed, criterion, n, m, k), n, m)
                path = _write(inst, workdir, f"exists-{criterion}-{n}-{m}-{k}")
                argv = ["exists", path, "--criterion", criterion, "--format", "json"]
                must_exist = n == 2 and criterion == "ef1"
                ops.append(_cli_op(f"exists {criterion} n={n} m={m} #{k}", argv,
                                   _exists_check(inst, criterion, must_exist), ok_codes=(0, 1)))
    return ops


def _golden_check(instance, criterion):
    inner = _exists_check(instance, criterion, must_exist=False)

    def check(output):
        problems = inner(output)
        if json.loads(output[1])["exists"]:
            problems.append(f"golden {criterion} instance answered with a witness")
        return problems

    return check


WORKLOADS = {
    "two-agent-solve": two_agent_solve,
    "two-agent-trace": two_agent_trace,
    "two-agent-monotone": two_agent_monotone,
    "n-agent-solve": n_agent_solve,
    "oracle-exists": oracle_exists,
}
