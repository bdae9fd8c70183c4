"""Command-line interface.

Subcommands: solve, check, exists, enumerate, sequence, demo, generate.
Exit codes: 0 = success / criterion holds; 1 = criterion fails or no witness
exists; 2 = input error; 3 = internal invariant violation or any other
unexpected exception (a library bug).
Results go to stdout (JSON is the stable machine format, text is for
humans); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from typing import Any, Callable, Optional

from . import io as fileio
from .checkers import _require_feasible, is_complete, is_maximal, is_pareto_optimal
from .core import InputError, Instance, InternalInvariantError, Schedule, path_instance
from .generate import (
    random_bounded_components_instance,
    random_dichotomous_path_instance,
    random_interval_instance,
    random_path_instance,
)
from .n_agent import solve_identical_bounded_components, solve_identical_dichotomous_path
from .oracle import (
    CRITERIA,
    ExistenceQuery,
    _envy_verdict,
    demo_round_robin,
    demo_top_trading_envy_cycle,
    enumerate_maximal,
    exists,
)
from .two_agent import interval_sequence_ef1, path_sequence, select_ef1, solve_two_agents

OK, FAILS, BAD_INPUT, BUG = 0, 1, 2, 3

ALGORITHMS = (
    "auto",
    "two-agent-interval",
    "two-agent-path",
    "dichotomous-path",
    "bounded-components",
)


def _emit(
    fmt: str,
    payload: Callable[[], Any],
    text: Callable[[], str],
    dumps: Callable[[Any], str] = fileio._dumps,
) -> None:
    """Print dumps(payload()) for JSON, or text(), building only the form fmt asks for."""
    print(dumps(payload()) if fmt == "json" else text())


def _schedule_text(schedule: Schedule) -> str:
    parts = [
        f"agent {i}: {sorted(bundle) or '(empty)'}"
        for i, bundle in enumerate(schedule.bundles())
    ]
    unassigned = sorted(schedule.unassigned())
    parts.append(f"unassigned: {unassigned or '(none)'}")
    return "\n".join(parts)


def _pick_algorithm(instance: Instance, requested: str) -> str:
    if requested != "auto":
        return requested
    vals = instance.valuations
    if instance.n == 2:
        return "two-agent-interval"
    # Instance files only hold additive profiles, so is_identical is defined.
    if not vals.is_identical():
        raise InputError(
            "no algorithm applies: need 2 agents, or identical dichotomous values on a path "
            "with n >= 4, or identical values with components of at most n chores"
        )
    if instance.n >= 4 and instance.graph().is_path and vals.dichotomy() is not None:
        return "dichotomous-path"
    # The solver itself rejects a component of more than n chores.
    return "bounded-components"


def _solve(instance: Instance, algo: str) -> Schedule:
    """The schedule of the requested (or picked) algorithm, EF1 and maximal.

    Every solver called here raises InternalInvariantError unless its result
    is both: select_ef1 checks EF1 and maximality, the n-agent solvers EF1,
    completeness and feasibility.  Callers need not check it again.
    """
    algo = _pick_algorithm(instance, algo)
    if algo == "two-agent-interval":
        return solve_two_agents(instance)
    if algo == "two-agent-path":
        return select_ef1(path_sequence(instance), instance)
    if algo == "dichotomous-path":
        return solve_identical_dichotomous_path(instance)
    return solve_identical_bounded_components(instance)


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = fileio.load_instance(args.instance)
    schedule = _solve(instance, args.algo)
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
        lambda: {
            "count": len(schedules),
            "schedules": [fileio.schedule_to_dict(s) for s in schedules],
        },
        lambda: "\n".join(
            [f"{len(schedules)} maximal schedules"]
            + [str([sorted(b) for b in s.bundles()]) for s in schedules]
        ),
    )
    return OK


def _cmd_sequence(args: argparse.Namespace) -> int:
    instance = fileio.load_instance(args.instance)
    if args.algo == "two-agent-path":
        seq = path_sequence(instance)
    else:
        seq = interval_sequence_ef1(instance)
    _emit(args.format, lambda: seq, lambda: "\n".join(seq.trace_lines()), fileio._dumps_sequence)
    return OK


GOLDEN_DEMOS = ("efx-maximal", "ef1-po", "ef1-complete", "round-robin", "envy-cycle")


def _demo_instance(name: str) -> Instance:
    rows = {
        "efx-maximal": [-1, -1, -1, -4],
        "ef1-po": [-2, -10, -1, -10, -2],
        "ef1-complete": [-1, -3, -1, -3],
        "round-robin": [0, -7, -2, -1, -3, -8, -9, -10],
        "envy-cycle": [-10, -1, -10, -3, -2],
    }[name]
    return path_instance([rows, rows])


def _cmd_demo(args: argparse.Namespace) -> int:
    name = args.name
    instance = _demo_instance(name)
    values = list(instance.valuations.table[0])
    if name in ("efx-maximal", "ef1-po", "ef1-complete"):
        criterion = {"efx-maximal": "efx", "ef1-po": "ef1+po", "ef1-complete": "ef1+complete"}[name]
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
    if name == "round-robin":
        schedule, verdict = demo_round_robin(instance)
        expected = ({0, 2, 4, 6}, {3, 1, 5, 7})
    else:
        schedule, verdict = demo_top_trading_envy_cycle(instance)
        expected = ({1, 3}, {0, 2, 4})
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


def _cmd_generate(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    if args.kind == "random-intervals":
        instance = random_interval_instance(rng, args.n, args.m, args.vmin, args.vmax)
    elif args.kind == "random-path":
        instance = random_path_instance(rng, args.n, args.m, args.vmin, args.vmax)
    elif args.kind == "random-dichotomous-path":
        instance = random_dichotomous_path_instance(rng, args.n, args.m, args.vmin)
    else:  # bounded-components
        instance = random_bounded_components_instance(
            rng, args.n, args.m, args.max_component, args.vmin, args.vmax
        )
    if args.out:
        fileio.save_instance(instance, args.out)
        print(args.out)
    else:
        print(fileio._dumps(fileio.instance_to_dict(instance)))
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
    p.add_argument("--guard", type=int, default=16)
    add_common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("exists", help="search all maximal schedules for a criterion")
    p.add_argument("instance")
    p.add_argument("--criterion", choices=CRITERIA, default="ef1")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--guard", type=int, default=16)
    add_common(p)
    p.set_defaults(func=_cmd_exists)

    p = sub.add_parser("enumerate", help="list every maximal schedule")
    p.add_argument("instance")
    p.add_argument("--guard", type=int, default=16)
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
    p.add_argument(
        "--kind",
        choices=(
            "random-intervals",
            "random-path",
            "random-dichotomous-path",
            "bounded-components",
        ),
        required=True,
    )
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
