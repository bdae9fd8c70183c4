"""Command-line interface.

Subcommands: solve, check, exists, enumerate, sequence, demo, generate.
Exit codes: 0 = success / criterion holds; 1 = criterion fails or no witness
exists; 2 = input error; 3 = internal invariant violation (a library bug).
Results go to stdout (JSON is the stable machine format, text is for
humans); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Any, Optional

from . import io as fileio
from .checkers import check_ef1, is_complete, is_maximal, is_pareto_optimal
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


def _emit(payload: dict[str, Any], text: str, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _schedule_text(schedule: Schedule) -> str:
    parts = [
        f"agent {i}: {sorted(schedule.bundle(i)) or '(empty)'}"
        for i in range(schedule.n_agents)
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
    if (
        instance.n >= 4
        and instance.graph().is_path
        and vals.is_additive
        and vals.is_identical()
        and vals.dichotomy() is not None
    ):
        return "dichotomous-path"
    if (
        vals.is_additive
        and vals.is_identical()
        and all(len(c) <= instance.n for c in instance.graph().components())
    ):
        return "bounded-components"
    raise InputError(
        "no algorithm applies: need 2 agents, or identical dichotomous values on a path "
        "with n >= 4, or identical values with components of at most n chores"
    )


def _solve(instance: Instance, algo: str) -> Schedule:
    algo = _pick_algorithm(instance, algo)
    if algo == "two-agent-interval":
        return solve_two_agents(instance)
    if algo == "two-agent-path":
        return select_ef1(path_sequence(instance), instance)
    if algo == "dichotomous-path":
        return solve_identical_dichotomous_path(instance)
    if algo == "bounded-components":
        return solve_identical_bounded_components(instance)
    raise InputError(f"unknown algorithm {algo!r}")


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = fileio.load_instance(args.instance)
    schedule = _solve(instance, args.algo)
    ef1 = check_ef1(schedule, instance).holds
    maximal = is_maximal(schedule, instance.graph())
    if args.out:
        fileio.save_schedule(schedule, args.out)
    payload = {
        "schedule": fileio.schedule_to_dict(schedule),
        "ef1": ef1,
        "maximal": maximal,
    }
    _emit(payload, _schedule_text(schedule) + f"\nEF1: {ef1}\nmaximal: {maximal}", args.format)
    return OK


def _cmd_check(args: argparse.Namespace) -> int:
    instance = fileio.load_instance(args.instance)
    schedule = fileio.load_schedule(args.schedule, instance)
    crit = args.criterion
    violations: list[tuple[int, int, int]] = []
    if crit == "maximal":
        holds = is_maximal(schedule, instance.graph())
    elif crit == "complete":
        holds = is_complete(schedule)
    elif crit == "po":
        holds = is_pareto_optimal(schedule, instance, guard=args.guard)
    else:
        if crit == "efk" and args.k is None:
            raise InputError("criterion 'efk' needs --k")
        verdict = _envy_verdict(schedule, instance, crit, args.k)
        holds = verdict.holds
        violations = list(verdict.violations)
    payload = {"criterion": crit, "holds": holds, "violations": violations}
    lines = [f"{crit}: {'holds' if holds else 'fails'}"]
    for i, k, r in violations:
        lines.append(f"  agent {i} envies agent {k} (needs {r} removals)")
    _emit(payload, "\n".join(lines), args.format)
    return OK if holds else FAILS


def _cmd_exists(args: argparse.Namespace) -> int:
    instance = fileio.load_instance(args.instance)
    query = ExistenceQuery(
        instance=instance, criterion=args.criterion, k=args.k, guard=args.guard
    )
    witness = exists(query)
    payload = {
        "exists": witness is not None,
        "witness": fileio.schedule_to_dict(witness) if witness is not None else None,
    }
    text = f"exists: {str(witness is not None).lower()}"
    if witness is not None:
        text += "\n" + _schedule_text(witness)
    _emit(payload, text, args.format)
    return OK if witness is not None else FAILS


def _cmd_enumerate(args: argparse.Namespace) -> int:
    instance = fileio.load_instance(args.instance)
    schedules = list(enumerate_maximal(instance, guard=args.guard))
    payload = {
        "count": len(schedules),
        "schedules": [fileio.schedule_to_dict(s) for s in schedules],
    }
    lines = [f"{len(schedules)} maximal schedules"]
    lines += [str([sorted(s.bundle(i)) for i in range(s.n_agents)]) for s in schedules]
    _emit(payload, "\n".join(lines), args.format)
    return OK


def _cmd_sequence(args: argparse.Namespace) -> int:
    instance = fileio.load_instance(args.instance)
    algo = args.algo
    if algo == "auto":
        algo = "two-agent-interval"
    if algo == "two-agent-path":
        seq = path_sequence(instance)
    elif algo == "two-agent-interval":
        seq = interval_sequence_ef1(instance)
    else:
        raise InputError(f"sequence construction is two-agent only, not {algo!r}")
    lines = seq.trace_lines()
    payload = {
        "steps": [
            {
                "phase": tag,
                "colors": line.split(" ")[0],
                "assignment": fileio.schedule_to_dict(step)["assignment"],
            }
            for (step, tag, line) in zip(seq.steps, seq.tags, lines)
        ]
    }
    _emit(payload, "\n".join(lines), args.format)
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
        payload = {
            "demo": name,
            "values": values,
            "criterion": criterion,
            "exists": False,
        }
        text = (
            f"path of {instance.m} chores, identical values {values}\n"
            f"criterion {criterion} (plus maximality): exists: false"
        )
        _emit(payload, text, args.format)
        return OK
    if name == "round-robin":
        schedule, verdict = demo_round_robin(instance)
        expected = ({0, 2, 4, 6}, {3, 1, 5, 7})
    else:
        schedule, verdict = demo_top_trading_envy_cycle(instance)
        expected = ({1, 3}, {0, 2, 4})
    if (set(schedule.bundle(0)), set(schedule.bundle(1))) != expected or verdict.holds:
        raise InternalInvariantError(f"demo {name} did not reproduce its published run")
    payload = {
        "demo": name,
        "values": values,
        "schedule": fileio.schedule_to_dict(schedule),
        "ef1": verdict.holds,
        "violations": list(verdict.violations),
    }
    text = (
        f"path of {instance.m} chores, identical values {values}\n"
        + _schedule_text(schedule)
        + f"\nEF1: {verdict.holds}"
        + "".join(
            f"\n  agent {i} envies agent {k} (needs {r} removals)"
            for i, k, r in verdict.violations
        )
    )
    _emit(payload, text, args.format)
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
        print(json.dumps(fileio.instance_to_dict(instance), indent=2, sort_keys=True))
    return OK


def build_parser() -> argparse.ArgumentParser:
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
    parser = build_parser()
    args = parser.parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
