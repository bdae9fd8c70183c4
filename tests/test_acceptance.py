"""Acceptance suite: one test per shipping criterion, at full stated scale.

Each test prints a single PASS/FAIL line (run with -s to watch).  Every
criterion tolerates zero failures over its corpus.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

import pytest

from choresched.checkers import check_ef, check_ef1, check_efk, check_efx, is_complete, is_maximal
from choresched.core import path_instance
from choresched.generate import (
    random_bounded_components_instance,
    random_dichotomous_path_instance,
    random_interval_instance,
)
from choresched.n_agent import (
    dichotomous_path_solution,
    envy_graph,
    solve_identical_bounded_components,
)
from choresched.oracle import (
    ExistenceQuery,
    demo_round_robin,
    demo_top_trading_envy_cycle,
    enumerate_maximal,
    exists,
)
from choresched.two_agent import (
    adjacent,
    classify_chores,
    classify_supported,
    interval_sequence_ef1,
    interval_sequence_ef2,
    path_sequence,
    solve_two_agents,
)

from conftest import (
    N_TWO_AGENT_ADDITIVE,
    N_TWO_AGENT_MONOTONE,
    component_prefixes,
    random_feasible_schedule,
)


@contextmanager
def criterion(label: str):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"FAIL {label}")
        raise
    print(f"PASS {label} ({time.time() - start:.1f}s)")


N_PER_AGENT_COUNT_DICHOTOMOUS = 1_000
N_PER_AGENT_COUNT_BOUNDED = 1_000
N_CHECKER_PAIRS = 10_000


def test_criterion_1_golden_nonexistence():
    cases = [
        ("efx", [-1, -1, -1, -4]),
        ("ef1+po", [-2, -10, -1, -10, -2]),
        ("ef1+complete", [-1, -3, -1, -3]),
    ]
    with criterion("criterion 1: golden non-existence results"):
        for crit, values in cases:
            inst = path_instance([values] * 2)
            start = time.time()
            assert exists(ExistenceQuery(instance=inst, criterion=crit)) is None
            assert time.time() - start < 1.0
            # EF1 together with plain maximality is still achievable there
            assert exists(ExistenceQuery(instance=inst, criterion="ef1")) is not None


def test_criterion_2_golden_limitation_demos():
    with criterion("criterion 2: round robin and envy-cycle demos reproduce exactly"):
        rr_inst = path_instance([[0, -7, -2, -1, -3, -8, -9, -10]] * 2)
        schedule, verdict = demo_round_robin(rr_inst)
        assert schedule.bundle(0) == {0, 2, 4, 6}
        assert schedule.bundle(1) == {3, 1, 5, 7}
        assert not verdict.holds
        assert [v[:2] for v in verdict.violations] == [(1, 0)]

        ec_inst = path_instance([[-10, -1, -10, -3, -2]] * 2)
        schedule, verdict = demo_top_trading_envy_cycle(ec_inst)
        assert schedule.bundle(0) == {1, 3}
        assert schedule.bundle(1) == {0, 2, 4}
        assert not verdict.holds
        assert [v[:2] for v in verdict.violations] == [(1, 0)]


def test_criterion_3_two_agent_guarantee(two_agent_corpus):
    label = (
        f"criterion 3: solve_two_agents EF1+maximal on {N_TWO_AGENT_ADDITIVE} additive "
        f"+ {N_TWO_AGENT_MONOTONE} monotone instances, oracle-confirmed for m <= 10"
    )
    with criterion(label):
        start = time.time()
        for inst in two_agent_corpus.intervals + two_agent_corpus.monotone:
            schedule = solve_two_agents(inst)
            assert check_ef1(schedule, inst).holds
            assert is_maximal(schedule, inst.graph())
            if inst.m <= 10:
                # independent confirmation: the output is one of the
                # exhaustively enumerated maximal schedules (and is EF1,
                # so it lies in the EF1-and-maximal set)
                assert schedule in set(enumerate_maximal(inst))
        assert time.time() - start < 300, "criterion 3 must finish within 5 minutes"


def test_criterion_4_sequence_invariants(two_agent_corpus):
    with criterion("criterion 4: per-step maximality, adjacency, swapped endpoints"):
        def verify(seq, graph, require_maximal=True):
            for step in seq.steps:
                if require_maximal:
                    assert is_maximal(step, graph)
            for x, y in zip(seq.steps, seq.steps[1:]):
                assert adjacent(x, y)
            assert seq.steps[0].bundle(0) == seq.steps[-1].bundle(1)
            assert seq.steps[0].bundle(1) == seq.steps[-1].bundle(0)

        for inst in two_agent_corpus.paths:
            verify(path_sequence(inst), inst.graph())
        for inst in two_agent_corpus.intervals:
            graph = inst.graph()
            verify(interval_sequence_ef1(inst), graph)
            seq, hints = interval_sequence_ef2(inst)
            verify(seq, graph, require_maximal=False)
            for step, hint in zip(seq.steps, hints):
                completed = step if hint is None else step.assign(*hint)
                assert is_maximal(completed, graph)


def test_criterion_5_phase2_postconditions(two_agent_corpus):
    with criterion("criterion 5: every unassigned chore supported after phase 2, "
                   "untargeted overlaps confined to the next untargeted chore"):
        for inst in two_agent_corpus.intervals:
            cls = classify_chores(inst.chores)
            seq = interval_sequence_ef1(inst)
            phase2_end = max(
                (i for i, tag in enumerate(seq.tags) if tag != "phase3"), default=0
            )
            step = seq.steps[phase2_end]
            assert all(classify_supported(step, cls).values())
            target = {c: cls.target_color(c) for c in range(inst.m)}
            untargeted = [c for c in cls.order if step.assignment[c] != target[c]]
            nxt = {
                c: (untargeted[i + 1] if i + 1 < len(untargeted) else None)
                for i, c in enumerate(untargeted)
            }
            for c in untargeted:
                if step.assignment[c] is None or target[c] is None:
                    continue
                for x in cls.graph.neighbors(c):
                    if cls.rank[x] > cls.rank[c] and step.assignment[x] == target[c]:
                        assert x == nxt[c]


def test_criterion_6_weighted_round_robin():
    label = (
        f"criterion 6: dichotomous path solver on {N_PER_AGENT_COUNT_DICHOTOMOUS} "
        "instances per n in 4..8: complete, EF1, counts within 1, padded run envy-free"
    )
    with criterion(label):
        start = time.time()
        for n in (4, 5, 6, 7, 8):
            rng = random.Random(5150 + n)
            for _ in range(N_PER_AGENT_COUNT_DICHOTOMOUS):
                inst = random_dichotomous_path_instance(rng, n, rng.randint(2, 14))
                sol = dichotomous_path_solution(inst)
                assert is_complete(sol.schedule)
                assert check_ef1(sol.schedule, inst).holds
                heavy = {
                    c
                    for c in range(inst.m)
                    if inst.valuations.chore_value(0, c) == sol.heavy_value
                }
                counts = [
                    (
                        sum(1 for c in b if c in heavy),
                        sum(1 for c in b if c not in heavy),
                    )
                    for b in sol.schedule.bundles()
                ]
                for kind in (0, 1):
                    values = [c[kind] for c in counts]
                    assert max(values) - min(values) <= 1
                assert check_ef(sol.padded_schedule, sol.padded_instance).holds
        assert time.time() - start < 120, "criterion 6 must finish within 2 minutes"


def test_criterion_7_bounded_components():
    label = (
        f"criterion 7: bounded-component solver on {N_PER_AGENT_COUNT_BOUNDED} "
        "instances per n in 2..4: EF1, maximal, acyclic envy graphs throughout"
    )
    with criterion(label):
        for n in (2, 3, 4):
            rng = random.Random(7771 + n)
            for _ in range(N_PER_AGENT_COUNT_BOUNDED):
                inst = random_bounded_components_instance(rng, n, rng.randint(1, 12))
                schedule = solve_identical_bounded_components(inst)
                assert check_ef1(schedule, inst).holds
                assert is_maximal(schedule, inst.graph())
                for partial in component_prefixes(schedule, inst.graph()):
                    assert envy_graph(partial, inst).is_acyclic()


def test_criterion_8_checker_implication_chain():
    label = (
        f"criterion 8: EF => EFX => EF1 and EF-k monotone over {N_CHECKER_PAIRS} "
        "random schedule/instance pairs; efk(0) == ef, efk(1) == ef1"
    )
    with criterion(label):
        rng = random.Random(8888)
        for _ in range(N_CHECKER_PAIRS):
            n = rng.randint(2, 4)
            m = rng.randint(1, 8)
            inst = random_interval_instance(rng, n, m)
            schedule = random_feasible_schedule(rng, inst)
            ef = check_ef(schedule, inst)
            efx = check_efx(schedule, inst)
            ef1 = check_ef1(schedule, inst)
            if ef.holds:
                assert efx.holds
            if efx.holds:
                assert ef1.holds
            assert check_efk(schedule, inst, 0) == ef
            assert check_efk(schedule, inst, 1) == ef1
            previous_holds = None
            for k in (0, 1, 2, 3):
                verdict = check_efk(schedule, inst, k)
                if previous_holds:
                    assert verdict.holds
                previous_holds = verdict.holds
