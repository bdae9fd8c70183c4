"""Shared helpers: independent brute-force oracles and random corpora."""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass

import pytest

from choresched.core import ConflictGraph, Instance, MonotoneValuations, Schedule, is_feasible
from choresched.checkers import is_maximal
from choresched.generate import random_interval_instance, random_path_instance

N_TWO_AGENT_ADDITIVE = 10_000
N_TWO_AGENT_MONOTONE = 1_000
N_TWO_AGENT_PATHS = 2_000


def naive_enumerate_maximal(instance: Instance) -> list[Schedule]:
    """Second, unpruned enumerator used only to cross-check the real one.

    Walks the full (n+1)^m assignment space and filters.  itertools.product
    over [0, ..., n-1, None] visits it in enumerate_maximal's documented
    order, so the two lists must match element for element.
    """
    graph = instance.graph()
    out = []
    options = list(range(instance.n)) + [None]
    for combo in itertools.product(options, repeat=instance.m):
        schedule = Schedule(instance.n, combo)
        if is_feasible(schedule, graph) and is_maximal(schedule, graph):
            out.append(schedule)
    return out


def random_feasible_schedule(rng: random.Random, instance: Instance) -> Schedule:
    """A random feasible (not necessarily maximal) schedule."""
    graph = instance.graph()
    assignment: list[int | None] = [None] * instance.m
    masks = [0] * instance.n
    for c in range(instance.m):
        options = [None] + [
            a for a in range(instance.n) if not graph.neighbor_masks[c] & masks[a]
        ]
        pick = rng.choice(options)
        assignment[c] = pick
        if pick is not None:
            masks[pick] |= 1 << c
    return Schedule(instance.n, tuple(assignment))


class QueryCounter:
    """Monotone valuation functions that count every value query they answer."""

    def __init__(self):
        self.queries = 0

    def wrap(self, fn):
        def counted(agent, bundle):
            self.queries += 1
            return fn(agent, bundle)

        return counted


def worst_chore_times_count(table):
    """A monotone, non-additive profile: the bundle's worst chore, paid once
    per chore it holds."""
    return lambda i, b: min((table[i][c] for c in b), default=0) * len(b)


def additive_minus_squared_count(table):
    """A monotone, non-additive profile: the additive value less |bundle|^2."""
    return lambda i, b: sum(table[i][c] for c in b) - len(b) ** 2


def component_prefixes(schedule: Schedule, graph: ConflictGraph) -> list[Schedule]:
    """The schedule restricted to the first j components, for j = 0..#components.

    Components come in graph.components() order, the order in which the
    bounded-components solver deals them, so these are its partial schedules.
    """
    assignment: list[int | None] = [None] * schedule.m
    prefixes = [Schedule(schedule.n_agents, tuple(assignment))]
    for comp in graph.components():
        for c in comp:
            assignment[c] = schedule.assignment[c]
        prefixes.append(Schedule(schedule.n_agents, tuple(assignment)))
    return prefixes


def independent_additive_failures(
    instance: Instance, schedule: Schedule, complete: bool = True
) -> list[str]:
    """Why the schedule is not complete (or, with complete=False, maximal),
    conflict-free and EF1, from first principles.

    Reads only the chores' intervals and the additive value table: no
    choresched checker, graph or solver is used.  Two chores conflict when
    their half-open intervals intersect.  A schedule is maximal when every
    unassigned chore conflicts with some chore of every bundle.  Agent i is
    EF1 towards k when dropping i's worst chore leaves v_i(X_i) >= v_i(X_k).
    Returns an empty list when every property holds.
    """
    failures = []
    bundles: list[list[int]] = [[] for _ in range(instance.n)]
    unassigned = []
    for c, a in enumerate(schedule.assignment):
        if a is None:
            unassigned.append(c)
            if complete:
                failures.append(f"chore {c} unassigned")
        else:
            bundles[a].append(c)
    spans = [(ch.start, ch.finish) for ch in instance.chores]
    for a, bundle in enumerate(bundles):
        for c, d in itertools.combinations(bundle, 2):
            if max(spans[c][0], spans[d][0]) < min(spans[c][1], spans[d][1]):
                failures.append(f"agent {a} holds overlapping chores {c} and {d}")
    if not complete:
        for a, bundle in enumerate(bundles):
            # A chore [s, f) conflicts with the bundle iff some member starting
            # before f finishes after s: compare s with the latest finish among
            # the members that start before f.
            by_start = sorted(spans[c] for c in bundle)
            starts = [start for start, _ in by_start]
            latest = list(itertools.accumulate((finish for _, finish in by_start), max))
            for c in unassigned:
                start, finish = spans[c]
                before = bisect.bisect_left(starts, finish)
                if before == 0 or latest[before - 1] <= start:
                    failures.append(f"chore {c} unassigned but fits agent {a}'s bundle")
    table = instance.valuations.table
    for i, row in enumerate(table):
        own = sum(row[c] for c in bundles[i])
        relief = -min((row[c] for c in bundles[i]), default=0)
        for k, other in enumerate(bundles):
            if k != i and own + relief < sum(row[c] for c in other):
                failures.append(f"agent {i} envies agent {k} beyond one chore")
    return failures


@pytest.fixture(scope="session")
def rng_factory():
    def make(seed: int) -> random.Random:
        return random.Random(seed)

    return make


@dataclass(frozen=True)
class TwoAgentCorpus:
    intervals: list[Instance]
    monotone: list[Instance]
    paths: list[Instance]


@pytest.fixture(scope="session")
def two_agent_corpus() -> TwoAgentCorpus:
    """The acceptance suite's two-agent corpus, built once per session."""
    rng = random.Random(20240)
    intervals = [
        random_interval_instance(rng, 2, rng.randint(1, 12))
        for _ in range(N_TWO_AGENT_ADDITIVE)
    ]
    monotone = [
        Instance(
            2,
            inst.chores,
            MonotoneValuations(2, inst.m, lambda i, b: -(len(b) ** 2)),
        )
        for inst in intervals[:N_TWO_AGENT_MONOTONE]
    ]
    paths = [
        random_path_instance(rng, 2, rng.randint(1, 12))
        for _ in range(N_TWO_AGENT_PATHS)
    ]
    return TwoAgentCorpus(intervals=intervals, monotone=monotone, paths=paths)
