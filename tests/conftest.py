"""Shared helpers: independent brute-force oracles and random corpora."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import pytest

from choresched.core import Instance, MonotoneValuations, Schedule, is_feasible
from choresched.checkers import is_maximal
from choresched.generate import random_interval_instance, random_path_instance

N_TWO_AGENT_ADDITIVE = 10_000
N_TWO_AGENT_MONOTONE = 1_000
N_TWO_AGENT_PATHS = 2_000


def naive_enumerate_maximal(instance: Instance) -> list[Schedule]:
    """Second, unpruned enumerator used only to cross-check the real one.

    Walks the full (n+1)^m assignment space and filters.
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
