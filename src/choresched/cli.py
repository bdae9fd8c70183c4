"""Command-line interface.

Subcommands: solve, check, exists, enumerate, sequence, demo, generate.
Exit codes: 0 = success / criterion holds; 1 = criterion fails or no witness
exists; 2 = input error; 3 = internal invariant violation or any other
unexpected exception (a library bug).
Results go to stdout (JSON is the stable machine format, text is for
humans); closing it early changes no exit code.  Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, Optional, Union

from . import io as fileio
from .checkers import _require_feasible, is_complete, is_maximal
from .core import InputError, Instance, InternalInvariantError, Schedule, path_instance
from .generate import (
    random_bounded_components_instance,
    random_dichotomous_path_instance,
    random_interval_instance,
    random_path_instance,
)
from .n_agent import _auto_algorithm, solve_identical_bounded_components, solve_identical_dichotomous_path
from .oracle import (
    CRITERIA,
    GUARD,
    ExistenceQuery,
    _envy_verdict,
    demo_round_robin,
    demo_top_trading_envy_cycle,
    enumerate_maximal,
    exists,
    is_pareto_optimal,
)
from .two_agent import interval_sequence_ef1, path_sequence, select_ef1, solve_two_agents

OK, FAILS, BAD_INPUT, BUG = 0, 1, 2, 3

# Each solver's schedule is EF1 and maximal: select_ef1 raises
# InternalInvariantError unless it checked both, and the n-agent solvers
# unless they checked EF1, completeness and feasibility, so callers need not
# check it again.  Each entry looks its solver up when it runs, so a name
# replaced in this module (by a test or a tracer) is the one called.
_SOLVERS: dict[str, Callable[[Instance], Schedule]] = {
    "auto": lambda inst: _SOLVERS["two-agent-interval" if inst.n == 2 else _auto_algorithm(inst)](inst),
    "two-agent-interval": lambda instance: solve_two_agents(instance),
    "two-agent-path": lambda instance: select_ef1(path_sequence(instance), instance),
    "dichotomous-path": lambda instance: solve_identical_dichotomous_path(instance),
    "bounded-components": lambda instance: solve_identical_bounded_components(instance),
}
ALGORITHMS = tuple(_SOLVERS)


def _emit(
    fmt: str,
    payload: Callable[[], Any],
    text: Callable[[], Union[str, Iterable[str]]],
    dumps: Callable[[Any], Union[str, Iterable[str]]] = fileio._dumps,
) -> None:
    """Print dumps(payload()) for JSON, or text(), building only the form fmt asks for.

    Either form is a str or an iterable of str chunks, each written as it is
    built, so a large output is never held whole; a newline and a flush end it.
    """
    out = dumps(payload()) if fmt == "json" else text()
    try:
        write = sys.stdout.write
        for chunk in (out,) if isinstance(out, str) else out:
            write(chunk)
        write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout: the rest, and the flush at exit, go to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _line_chunks(lines: Iterable[str]) -> Iterator[str]:
    """The lines joined by newlines, one chunk per line."""
    separator = ""
    for line in lines:
        yield separator + line
        separator = "\n"


def _schedule_text(schedule: Schedule) -> str:
    parts = [
        f"agent {i}: {sorted(bundle) or '(empty)'}"
        for i, bundle in enumerate(schedule.bundles())
    ]
    unassigned = sorted(schedule.unassigned())
    parts.append(f"unassigned: {unassigned or '(none)'}")
    return "\n".join(parts)


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = fileio.load_instance(args.instance)
    schedule = _SOLVERS[args.algo](instance)
    if args.out:
        fileio.save_schedule(schedule, args.out)
    _emit(
        args.format,
        lambda: {"schedule": fileio.schedule_to_dict(schedule), "ef1": True, "maximal": True},
        lambda: _schedule_text(schedule) + "\nEF1: True\nmaximal: True",
    )
    return OK


def _cmd_check(args: argparse.Namespace) -> int:
    instance = fileio.load_instance(args.instance)
    schedule = fileio.load_schedule(args.schedule, instance)
    crit = args.criterion
    violations: list[tuple[int, int, int]] = []
    if crit == "maximal":
        holds = is_maximal(schedule, instance.graph())
    elif crit == "complete":
        _require_feasible(schedule, instance)
        holds = is_complete(schedule)
    elif crit == "po":
        holds = is_pareto_optimal(schedule, instance, guard=args.guard)
    else:
        if crit == "efk" and args.k is None:
            raise InputError("criterion 'efk' needs --k")
        verdict = _envy_verdict(schedule, instance, crit, args.k)
        holds = verdict.holds
        violations = list(verdict.violations)
    _emit(
        args.format,
        lambda: {"criterion": crit, "holds": holds, "violations": violations},
        lambda: "\n".join(
            [f"{crit}: {'holds' if holds else 'fails'}"]
            + [f"  agent {i} envies agent {k} (needs {r} removals)" for i, k, r in violations]
        ),
    )
    return OK if holds else FAILS


def _cmd_exists(args: argparse.Namespace) -> int:
    instance = fileio.load_instance(args.instance)
    query = ExistenceQuery(
        instance=instance, criterion=args.criterion, k=args.k, guard=args.guard
    )
    witness = exists(query)
    _emit(
        args.format,
        lambda: {
            "exists": witness is not None,
            "witness": fileio.schedule_to_dict(witness) if witness is not None else None,
        },
        lambda: f"exists: {str(witness is not None).lower()}"
        + ("" if witness is None else "\n" + _schedule_text(witness)),
    )
    return OK if witness is not None else FAILS


def _cmd_enumerate(args: argparse.Namespace) -> int:
    instance = fileio.load_instance(args.instance)
    schedules = list(enumerate_maximal(instance, guard=args.guard))
    _emit(
        args.format,
        lambda: schedules,
        lambda: _line_chunks(
            chain(
                [f"{len(schedules)} maximal schedules"],
                (str([sorted(b) for b in s.bundles()]) for s in schedules),
            )
        ),
        fileio._dumps_schedules,
    )
    return OK


def _cmd_sequence(args: argparse.Namespace) -> int:
    instance = fileio.load_instance(args.instance)
    if args.algo == "two-agent-path":
        seq = path_sequence(instance)
    else:
        seq = interval_sequence_ef1(instance)
    _emit(args.format, lambda: seq, lambda: _line_chunks(seq._lines()), fileio._dumps_sequence)
    return OK


# name: (both agents' values along a path, then the criterion that no maximal
# schedule meets and None, or the procedure and the bundles it published).
_DEMOS: dict[str, tuple[list[int], Any, Optional[tuple[set[int], ...]]]] = {
    "efx-maximal": ([-1, -1, -1, -4], "efx", None),
    "ef1-po": ([-2, -10, -1, -10, -2], "ef1+po", None),
    "ef1-complete": ([-1, -3, -1, -3], "ef1+complete", None),
    "round-robin": ([0, -7, -2, -1, -3, -8, -9, -10], demo_round_robin, ({0, 2, 4, 6}, {1, 3, 5, 7})),
    "envy-cycle": ([-10, -1, -10, -3, -2], demo_top_trading_envy_cycle, ({1, 3}, {0, 2, 4})),
}
GOLDEN_DEMOS = tuple(_DEMOS)


def _cmd_demo(args: argparse.Namespace) -> int:
    name = args.name
    values, run, expected = _DEMOS[name]
    instance = path_instance([values, values])
    if expected is None:
        criterion = run
        witness = exists(ExistenceQuery(instance=instance, criterion=criterion))
        if witness is not None:
            raise InternalInvariantError(f"demo {name}: expected no witness, found one")
        _emit(
            args.format,
            lambda: {"demo": name, "values": values, "criterion": criterion, "exists": False},
            lambda: (
                f"path of {instance.m} chores, identical values {values}\n"
                f"criterion {criterion} (plus maximality): exists: false"
            ),
        )
        return OK
    schedule, verdict = run(instance)
    if schedule.bundles() != expected or verdict.holds:
        raise InternalInvariantError(f"demo {name} did not reproduce its published run")
    _emit(
        args.format,
        lambda: {
            "demo": name,
            "values": values,
            "schedule": fileio.schedule_to_dict(schedule),
            "ef1": verdict.holds,
            "violations": list(verdict.violations),
        },
        lambda: (
            f"path of {instance.m} chores, identical values {values}\n"
            + _schedule_text(schedule)
            + f"\nEF1: {verdict.holds}"
            + "".join(
                f"\n  agent {i} envies agent {k} (needs {r} removals)"
                for i, k, r in verdict.violations
            )
        ),
    )
    return OK


_GENERATORS: dict[str, Callable[[random.Random, argparse.Namespace], Instance]] = {
    "random-intervals": lambda rng, a: random_interval_instance(rng, a.n, a.m, a.vmin, a.vmax),
    "random-path": lambda rng, a: random_path_instance(rng, a.n, a.m, a.vmin, a.vmax),
    "random-dichotomous-path": lambda rng, a: random_dichotomous_path_instance(rng, a.n, a.m, a.vmin),
    "bounded-components": lambda rng, a: random_bounded_components_instance(
        rng, a.n, a.m, a.max_component, a.vmin, a.vmax
    ),
}


def _cmd_generate(args: argparse.Namespace) -> int:
    instance = _GENERATORS[args.kind](random.Random(args.seed), args)
    if args.out:
        fileio.save_instance(instance, args.out)
    _emit("text" if args.out else "json", lambda: fileio.instance_to_dict(instance), lambda: args.out)
    return OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The choresched argument parser, built once per process and reused.

    Building it takes some twenty times as long as parsing a command line.
    Reuse is safe because parsing keeps no state in the parser: each
    parse_args call returns a new Namespace, and every default is immutable.
    """
    parser = argparse.ArgumentParser(
        prog="choresched",
        description="Fair scheduling of indivisible chores under interval conflicts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("solve", help="compute an EF1 and maximal schedule")
    p.add_argument("instance")
    p.add_argument("--algo", choices=ALGORITHMS, default="auto")
    p.add_argument("--out", help="write the schedule to this file")
    add_common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check", help="evaluate a schedule file against a criterion")
    p.add_argument("instance")
    p.add_argument("schedule")
    p.add_argument(
        "--criterion",
        choices=("ef", "ef1", "efx", "efk", "maximal", "complete", "po"),
        default="ef1",
    )
    p.add_argument("--k", type=int, default=None, help="k for --criterion efk")
    p.add_argument("--guard", type=int, default=GUARD)
    add_common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("exists", help="search all maximal schedules for a criterion")
    p.add_argument("instance")
    p.add_argument("--criterion", choices=CRITERIA, default="ef1")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--guard", type=int, default=GUARD)
    add_common(p)
    p.set_defaults(func=_cmd_exists)

    p = sub.add_parser("enumerate", help="list every maximal schedule")
    p.add_argument("instance")
    p.add_argument("--guard", type=int, default=GUARD)
    add_common(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("sequence", help="print the two-agent schedule sequence trace")
    p.add_argument("instance")
    p.add_argument("--algo", choices=("auto", "two-agent-interval", "two-agent-path"), default="auto")
    add_common(p)
    p.set_defaults(func=_cmd_sequence)

    p = sub.add_parser("demo", help="replay a built-in counterexample or failure demo")
    p.add_argument("name", choices=GOLDEN_DEMOS)
    add_common(p)
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("generate", help="write a random instance file")
    p.add_argument("--kind", choices=tuple(_GENERATORS), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vmin", type=int, default=-10)
    p.add_argument("--vmax", type=int, default=0)
    p.add_argument("--max-component", type=int, default=None)
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_generate)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return BUG
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}", file=sys.stderr)
        return BAD_INPUT
    except Exception as exc:
        # Exit 1 means "criterion fails"; any other escape is a library bug.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return BUG


if __name__ == "__main__":
    sys.exit(main())
