"""Metamorphic tests: input changes whose effect on the output is known.

The sequence constructions read only the conflict graph and the finish
order, and translating or positively scaling every time preserves both, so
the traces must not change.  When no two chores finish together, the finish
order does not depend on chore ids either, so relabelling the chores must
relabel every step the same way.  Which agent holds which valuation row must
not matter to the solver's guarantee.
"""

import random

import pytest

from choresched.checkers import check_ef1, is_maximal
from choresched.core import AdditiveValuations, Chore, Instance
from choresched.generate import random_interval_instance, random_path_instance
from choresched.two_agent import interval_sequence_ef1, path_sequence, solve_two_agents


def retimed(inst, offset=0, factor=1):
    """The instance with every time t replaced by factor * t + offset."""
    chores = tuple(
        Chore(id=c.id, start=factor * c.start + offset, finish=factor * c.finish + offset)
        for c in inst.chores
    )
    return Instance(inst.n, chores, inst.valuations)


def path_union(rng, m):
    """Disjoint paths with random overlap widths, chore ids shuffled."""
    spans = []
    start = 0
    for j in range(m):
        if j and rng.random() < 0.2:
            start = spans[-1][1] + rng.randint(0, 3)  # a new component
        finish = start + rng.randint(2, 5)
        spans.append((start, finish))
        start = finish - 1  # overlaps this chore only
    rng.shuffle(spans)
    chores = tuple(Chore(id=i, start=s, finish=f) for i, (s, f) in enumerate(spans))
    return Instance(2, chores, AdditiveValuations([[-1] * m] * 2))


def interval_corpus(rng):
    """Small mixed-shape interval instances plus a few large ones."""
    out = []
    for k in range(150):
        m = rng.randint(1, 40)
        if k % 3 == 0:
            out.append(random_interval_instance(rng, 2, m))
        elif k % 3 == 1:  # nested
            out.append(random_interval_instance(rng, 2, m, max_len=8, window=m))
        else:  # unmarked-rich: long chores packed into a short window
            out.append(random_interval_instance(rng, 2, m, max_len=2 * m, window=max(1, m // 2)))
    out += [random_interval_instance(rng, 2, m, max_len=12) for m in (300, 600)]
    return out


def path_corpus(rng):
    out = [random_path_instance(rng, 2, rng.randint(1, 30)) for _ in range(40)]
    out += [path_union(rng, rng.randint(1, 60)) for _ in range(60)]
    return out + [path_union(rng, 500)]


def distinct_finish_corpus(rng):
    """Interval instances whose finish times are pairwise distinct by construction."""
    out = []
    for k in range(200):
        m = rng.randint(1, 40) if k < 198 else 300
        max_len = rng.choice((3, m, 2 * m))
        finishes = rng.sample(range(1, 3 * m + 1), m)
        chores = tuple(
            Chore(id=j, start=max(0, f - rng.randint(1, max_len)), finish=f)
            for j, f in enumerate(finishes)
        )
        table = [[rng.randint(-10, 0) for _ in range(m)] for _ in range(2)]
        out.append(Instance(2, chores, AdditiveValuations(table)))
    return out


def relabelled(inst, perm):
    """The instance with chore c renamed perm[c], values moving along."""
    source = sorted(range(inst.m), key=perm.__getitem__)  # source[perm[c]] == c
    chores = tuple(
        Chore(id=new, start=inst.chores[c].start, finish=inst.chores[c].finish)
        for new, c in enumerate(source)
    )
    table = [[row[c] for c in source] for row in inst.valuations.table]
    return Instance(inst.n, chores, AdditiveValuations(table))


TRANSFORMS = [
    pytest.param({"offset": 1}, id="offset-1"),
    pytest.param({"offset": 997}, id="offset-997"),
    pytest.param({"factor": 2}, id="scale-2"),
    pytest.param({"factor": 7, "offset": 3}, id="scale-7-offset-3"),
]


@pytest.mark.parametrize("transform", TRANSFORMS)
def test_retiming_leaves_interval_traces_unchanged(transform):
    for inst in interval_corpus(random.Random(5)):
        expected = interval_sequence_ef1(inst).trace_lines()
        assert interval_sequence_ef1(retimed(inst, **transform)).trace_lines() == expected


@pytest.mark.parametrize("transform", TRANSFORMS)
def test_retiming_leaves_path_traces_unchanged(transform):
    for inst in path_corpus(random.Random(7)):
        expected = path_sequence(inst).trace_lines()
        assert path_sequence(retimed(inst, **transform)).trace_lines() == expected


def test_relabelling_chores_permutes_every_interval_step():
    rng = random.Random(13)
    for inst in distinct_finish_corpus(rng):
        perm = list(range(inst.m))
        rng.shuffle(perm)
        expected = interval_sequence_ef1(inst)
        got = interval_sequence_ef1(relabelled(inst, perm))
        assert got.tags == expected.tags
        for old, new in zip(expected.steps, got.steps):
            assert tuple(new.assignment[perm[c]] for c in range(inst.m)) == old.assignment


def test_swapped_valuation_rows_still_get_ef1_and_maximal():
    rng = random.Random(11)
    for inst in interval_corpus(rng):
        rows = inst.valuations.table
        swapped = Instance(2, inst.chores, AdditiveValuations([rows[1], rows[0]]))
        for case in (inst, swapped):
            schedule = solve_two_agents(case)
            assert check_ef1(schedule, case).holds
            assert is_maximal(schedule, case.graph())
