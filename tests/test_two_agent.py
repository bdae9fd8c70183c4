"""Two-agent sequence constructions and the EF1 selection."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choresched.checkers import check_ef1, is_maximal
from choresched.core import (
    Chore,
    InputError,
    Instance,
    InternalInvariantError,
    MonotoneValuations,
    Schedule,
    is_feasible,
    path_instance,
)
from choresched.generate import random_interval_instance, random_path_instance
from choresched.oracle import enumerate_maximal
from choresched.two_agent import (
    BLUE,
    RED,
    ScheduleSequence,
    _SequenceBuilder,
    _StepChecker,
    adjacent,
    classify_chores,
    classify_supported,
    interval_sequence_ef1,
    interval_sequence_ef2,
    path_sequence,
    select_ef1,
    solve_two_agents,
)


def verify_sequence_externally(seq, graph, require_maximal=True):
    for step in seq.steps:
        assert is_feasible(step, graph)
        if require_maximal:
            assert is_maximal(step, graph)
    for a, b in zip(seq.steps, seq.steps[1:]):
        assert adjacent(a, b)
    first, last = seq.steps[0], seq.steps[-1]
    assert first.bundle(0) == last.bundle(1)
    assert first.bundle(1) == last.bundle(0)


class TestAdjacent:
    def test_equal_schedules(self):
        s = Schedule(2, (0, 1, None))
        assert adjacent(s, s)

    def test_single_swap(self):
        assert adjacent(Schedule(2, (0, 1)), Schedule(2, (1, 0)))

    def test_moving_two_chores_out(self):
        x = Schedule(2, (0, 0, 1))
        y = Schedule(2, (None, None, 1))
        assert not adjacent(x, y)

    def test_needs_two_agents(self):
        with pytest.raises(InputError):
            adjacent(Schedule(3, (0,)), Schedule(3, (1,)))


class TestPathSequence:
    def test_six_chore_trace(self):
        seq = path_sequence(path_instance([[-1] * 6] * 2))
        assert seq.trace_lines() == [
            "RBRBRB initial",
            "BNRBRB path-shift",
            "BRNBRB path-shift",
            "BRBNRB path-shift",
            "BRBRNB path-shift",
            "BRBRBR path-shift",
        ]

    def test_two_chores_swap(self):
        seq = path_sequence(path_instance([[-1, -1]] * 2))
        assert [s.assignment for s in seq.steps] == [(0, 1), (1, 0)]

    def test_single_chore_two_steps(self):
        seq = path_sequence(path_instance([[-1]] * 2))
        assert [s.assignment for s in seq.steps] == [(0,), (1,)]

    def test_middle_steps_leave_one_chore_out(self):
        seq = path_sequence(path_instance([[-1] * 4] * 2))
        assert len(seq) == 4
        for i, step in enumerate(seq.steps):
            if 0 < i < 3:
                assert step.unassigned() == {i}
        verify_sequence_externally(seq, path_instance([[-1] * 4] * 2).graph())

    def test_non_path_rejected(self):
        chores = tuple(
            Chore(id=i, start=s, finish=f)
            for i, (s, f) in enumerate([(0, 3), (0, 1), (1, 2), (2, 3)])
        )
        inst = Instance(2, chores, MonotoneValuations(2, 4, lambda i, b: -len(b)))
        with pytest.raises(InputError):
            path_sequence(inst)

    def test_disjoint_union_of_paths(self):
        # two components: sequences run one after another, swap holds globally
        chores = tuple(
            Chore(id=i, start=s, finish=f)
            for i, (s, f) in enumerate([(0, 2), (1, 3), (10, 12), (11, 13), (20, 21)])
        )
        inst = Instance(2, chores, MonotoneValuations(2, 5, lambda i, b: -len(b)))
        seq = path_sequence(inst)
        verify_sequence_externally(seq, inst.graph())

    def test_wrong_agent_count_rejected(self):
        with pytest.raises(InputError):
            path_sequence(path_instance([[-1, -1]] * 3))

    def test_random_paths(self):
        rng = random.Random(31)
        for _ in range(200):
            inst = random_path_instance(rng, 2, rng.randint(1, 12))
            verify_sequence_externally(path_sequence(inst), inst.graph())


class TestClassification:
    def test_path_has_no_unmarked_chores(self):
        inst = path_instance([[-1] * 5] * 2)
        cls = classify_chores(inst.chores)
        assert cls.unmarked == frozenset()
        assert cls.marked == (0, 1, 2, 3, 4)

    def test_nested_chore_is_unmarked(self):
        # the long chore overlaps two earlier-finishing marked chores
        chores = tuple(
            Chore(id=i, start=s, finish=f)
            for i, (s, f) in enumerate([(0, 3), (0, 1), (1, 2), (2, 3)])
        )
        cls = classify_chores(chores)
        assert cls.marked == (1, 2, 3)
        assert cls.unmarked == frozenset({0})
        assert cls.bucket_of[0] == 2

    def test_supported_by_two_later_assigned(self):
        chores = tuple(
            Chore(id=i, start=s, finish=f)
            for i, (s, f) in enumerate([(0, 1), (0, 3), (0, 4)])
        )
        cls = classify_chores(chores)
        schedule = Schedule(2, (None, 0, 1))
        flags = classify_supported(schedule, cls)
        assert flags == {0: True}

    def test_initial_path_coloring_has_no_unassigned(self):
        inst = path_instance([[-1] * 4] * 2)
        cls = classify_chores(inst.chores)
        schedule = Schedule(2, (0, 1, 0, 1))
        assert classify_supported(schedule, cls) == {}

    def test_overlapping_anchors_reassignment_restores_support(self):
        # chore 2 overlaps both marked chores, which overlap each other: in
        # the initial coloring it is unsupported; the first reassignment
        # colors it and drops the earlier anchor, which is then supported
        chores = tuple(
            Chore(id=i, start=s, finish=f)
            for i, (s, f) in enumerate([(0, 3), (2, 5), (2, 6)])
        )
        inst = Instance(2, chores, MonotoneValuations(2, 3, lambda i, b: -len(b)))
        cls = classify_chores(chores)
        assert cls.marked == (0, 1) and cls.bucket_of[2] == 2
        initial = Schedule(2, (0, 1, None))
        assert classify_supported(initial, cls) == {2: False}
        seq = interval_sequence_ef1(inst)
        assert seq.tags[1] == "phase2-case-i"
        assert seq.steps[1].assignment == (None, 1, 0)
        assert classify_supported(seq.steps[1], cls) == {0: True}


class TestIntervalSequenceEf2:
    def test_path_matches_path_sequence_with_no_hints(self):
        inst = path_instance([[-1] * 6] * 2)
        seq, hints = interval_sequence_ef2(inst)
        assert all(h is None for h in hints)
        assert [s.assignment for s in seq.steps] == [
            s.assignment for s in path_sequence(inst).steps
        ]

    def test_star_runs_over_marked_chores_only(self):
        chores = tuple(
            Chore(id=i, start=s, finish=f)
            for i, (s, f) in enumerate([(0, 3), (0, 1), (1, 2), (2, 3)])
        )
        inst = Instance(2, chores, MonotoneValuations(2, 4, lambda i, b: -len(b)))
        seq, hints = interval_sequence_ef2(inst)
        for step in seq.steps:
            assert step.assignment[0] is None  # the nested chore stays out
        verify_sequence_externally(seq, inst.graph(), require_maximal=False)

    def test_random_steps_plus_hint_are_maximal(self):
        rng = random.Random(41)
        for _ in range(1000):
            inst = random_interval_instance(rng, 2, rng.randint(1, 10))
            graph = inst.graph()
            seq, hints = interval_sequence_ef2(inst)
            verify_sequence_externally(seq, graph, require_maximal=False)
            for step, hint in zip(seq.steps, hints):
                completed = step if hint is None else step.assign(*hint)
                assert is_maximal(completed, graph)

    def test_wrong_agent_count_rejected(self):
        with pytest.raises(InputError):
            interval_sequence_ef2(path_instance([[-1]] * 3))


class TestIntervalSequenceEf1:
    def test_path_degenerates_to_path_sequence(self):
        inst = path_instance([[-5, -1, -2, -4]] * 2)
        seq = interval_sequence_ef1(inst)
        assert [s.assignment for s in seq.steps] == [
            s.assignment for s in path_sequence(inst).steps
        ]
        assert all(tag in ("initial", "phase3") for tag in seq.tags)

    def test_unmarked_chores_unassigned_at_both_ends(self):
        # nested instance: several chores overlap two earlier-finishing ones
        intervals = [(0, 2), (1, 3), (0, 4), (3, 5), (4, 6), (2, 7), (6, 8), (0, 9)]
        chores = tuple(Chore(id=i, start=s, finish=f) for i, (s, f) in enumerate(intervals))
        inst = Instance(2, chores, MonotoneValuations(2, 8, lambda i, b: -len(b)))
        cls = classify_chores(chores)
        assert cls.unmarked  # the instance does exercise marking
        seq = interval_sequence_ef1(inst)
        first, last = seq.steps[0], seq.steps[-1]
        for u in cls.unmarked:
            assert first.assignment[u] is None
            assert last.assignment[u] is None
        verify_sequence_externally(seq, inst.graph())

    def test_random_instances_all_invariants(self):
        rng = random.Random(53)
        for _ in range(2000):
            inst = random_interval_instance(rng, 2, rng.randint(1, 12))
            verify_sequence_externally(interval_sequence_ef1(inst), inst.graph())

    def test_phase2_postconditions_on_random_instances(self):
        rng = random.Random(67)
        for _ in range(1000):
            inst = random_interval_instance(rng, 2, rng.randint(1, 12))
            cls = classify_chores(inst.chores)
            seq = interval_sequence_ef1(inst)
            phase2_end = max(
                (i for i, tag in enumerate(seq.tags) if tag != "phase3"), default=0
            )
            step = seq.steps[phase2_end]
            supported = classify_supported(step, cls)
            assert all(supported.values())
            # untargeted assigned chores: later overlaps of the target color
            # are exactly the immediately next untargeted chore
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


class TestRarePhase2Cases:
    """Frozen instances that drive the uncommon reassignment branches."""

    def build(self, intervals):
        chores = tuple(Chore(id=i, start=s, finish=f) for i, (s, f) in enumerate(intervals))
        return Instance(2, chores, MonotoneValuations(2, len(chores), lambda i, b: -len(b)))

    def test_case_ii_shifts_colors_along(self):
        inst = self.build([(0, 1), (4, 9), (1, 4), (0, 5), (5, 8)])
        seq = interval_sequence_ef1(inst)
        assert "phase2-case-ii" in seq.tags
        verify_sequence_externally(seq, inst.graph())

    def test_case_iiia_swaps_with_a_loose_chore(self):
        inst = self.build([(4, 8), (5, 7), (2, 5), (3, 4), (1, 2)])
        seq = interval_sequence_ef1(inst)
        assert "phase2-case-iiia" in seq.tags
        verify_sequence_externally(seq, inst.graph())

    def test_case_iiib_recolors_the_anchor(self):
        # hand-checked: the nested chore overlaps marked chores 2 and 3 plus a
        # later assigned one, so (iii b) recolors marked chore 3 and support
        # arrives through the opposite-bundle later overlap
        inst = self.build([(1, 5), (5, 9), (0, 1), (0, 2), (4, 9), (2, 4)])
        seq = interval_sequence_ef1(inst)
        assert seq.tags[1] == "phase2-case-iiib"
        assert seq.trace_lines()[0] == "NBRBRR initial"
        assert seq.trace_lines()[1] == "NBRBRB phase2-case-iiib"
        assert seq.trace_lines()[-1] == "NRBRBB phase3"
        verify_sequence_externally(seq, inst.graph())

    def test_case_iiic_follows_iiib_as_second_step(self):
        inst = self.build([(4, 7), (5, 6), (1, 4), (7, 9), (2, 6), (6, 10), (1, 5)])
        seq = interval_sequence_ef1(inst)
        i = seq.tags.index("phase2-case-iiib")
        assert seq.tags[i + 1] == "phase2-case-iiic"
        verify_sequence_externally(seq, inst.graph())


class TestSelectEf1:
    def test_returns_an_ef_step_directly(self):
        inst = path_instance([[-1, -1]] * 2)
        seq = path_sequence(inst)
        chosen = select_ef1(seq, inst)
        assert check_ef1(chosen, inst).holds

    def test_endpoint_fallback_when_nobody_envies(self):
        # all-zero values: agent 0 never envies anywhere in the sequence,
        # so the endpoints (which are exactly envy-free) are returned
        inst = path_instance([[0, 0, 0, 0]] * 2)
        seq = interval_sequence_ef1(inst)
        chosen = select_ef1(seq, inst)
        from choresched.checkers import check_ef

        assert check_ef(chosen, inst).holds
        assert is_maximal(chosen, inst.graph())

    def test_counterexample_instance_gets_ef1_maximal(self):
        inst = path_instance([[-1, -1, -1, -4]] * 2)
        chosen = select_ef1(interval_sequence_ef1(inst), inst)
        assert check_ef1(chosen, inst).holds
        assert is_maximal(chosen, inst.graph())
        assert chosen in list(enumerate_maximal(inst))

    def test_random_additive(self):
        rng = random.Random(71)
        for _ in range(1500):
            inst = random_interval_instance(rng, 2, rng.randint(1, 12))
            chosen = select_ef1(interval_sequence_ef1(inst), inst)
            assert check_ef1(chosen, inst).holds
            assert is_maximal(chosen, inst.graph())


class TestSolveTwoAgents:
    def test_single_chore(self):
        inst = path_instance([[-2]] * 2)
        schedule = solve_two_agents(inst)
        assert check_ef1(schedule, inst).holds
        assert is_maximal(schedule, inst.graph())

    def test_oracle_confirms_membership(self):
        inst = path_instance([[-1, -1, -1, -4]] * 2)
        schedule = solve_two_agents(inst)
        maximal = list(enumerate_maximal(inst))
        assert schedule in maximal
        assert check_ef1(schedule, inst).holds

    def test_non_additive_monotone_oracle(self):
        rng = random.Random(83)
        for _ in range(500):
            m = rng.randint(1, 10)
            inst = random_interval_instance(rng, 2, m)
            opaque = Instance(
                2, inst.chores, MonotoneValuations(2, m, lambda i, b: -(len(b) ** 2))
            )
            schedule = solve_two_agents(opaque)
            assert check_ef1(schedule, opaque).holds
            assert is_maximal(schedule, opaque.graph())

    def test_construction_never_queries_valuations(self):
        calls = 0

        def fn(agent, bundle):
            nonlocal calls
            calls += 1
            return -len(bundle)

        rng = random.Random(97)
        for _ in range(50):
            m = rng.randint(1, 10)
            inst = random_interval_instance(rng, 2, m)
            opaque = Instance(2, inst.chores, MonotoneValuations(2, m, fn))
            calls = 0
            interval_sequence_ef1(opaque)
            path_sequence(path_instance([[-1] * m] * 2))
            assert calls == 0
            solve_two_agents(opaque)
            assert 0 < calls <= 20 * (m + 5) ** 2  # polynomially many queries

    def test_three_agents_rejected(self):
        with pytest.raises(InputError):
            solve_two_agents(path_instance([[-1, -1]] * 3))


class TestTraceFormat:
    def test_colors_line_per_step(self):
        seq = ScheduleSequence(
            steps=(Schedule(2, (0, 1, None)),), tags=("initial",)
        )
        assert seq.trace_lines() == ["RBN initial"]


class TestExhaustiveSmallStructures:
    """Every interval structure with up to three chores in a 4-slot window.

    The sequence constructions are valuation-free, so this sweep covers the
    full structural space at that size, not a random sample.
    """

    def all_interval_tuples(self, m, max_start=3, max_len=3):
        import itertools

        choices = [
            (s, s + d) for s in range(max_start + 1) for d in range(1, max_len + 1)
        ]
        return itertools.product(choices, repeat=m)

    def test_sequences_on_every_structure(self):
        seen = set()
        for m in (1, 2, 3):
            for combo in self.all_interval_tuples(m):
                if combo in seen:
                    continue
                seen.add(combo)
                chores = tuple(
                    Chore(id=i, start=s, finish=f) for i, (s, f) in enumerate(combo)
                )
                inst = Instance(
                    2, chores, MonotoneValuations(2, m, lambda i, b: -len(b))
                )
                graph = inst.graph()
                verify_sequence_externally(interval_sequence_ef1(inst), graph)
                seq, hints = interval_sequence_ef2(inst)
                verify_sequence_externally(seq, graph, require_maximal=False)
                for step, hint in zip(seq.steps, hints):
                    completed = step if hint is None else step.assign(*hint)
                    assert is_maximal(completed, graph)

    def test_solver_on_every_structure_with_skewed_values(self):
        from choresched.core import AdditiveValuations

        for combo in self.all_interval_tuples(3):
            chores = tuple(
                Chore(id=i, start=s, finish=f) for i, (s, f) in enumerate(combo)
            )
            inst = Instance(
                2, chores, AdditiveValuations([[-9, -1, 0], [0, -1, -9]])
            )
            schedule = solve_two_agents(inst)
            assert check_ef1(schedule, inst).holds
            assert is_maximal(schedule, inst.graph())


intervals_strategy = st.lists(
    st.tuples(st.integers(0, 14), st.integers(1, 6)), min_size=1, max_size=9
)
values_strategy = st.integers(-5, 0)


@settings(max_examples=300, deadline=None)
@given(intervals_strategy, st.data())
def test_property_solver_is_ef1_and_maximal(raw, data):
    chores = tuple(Chore(id=i, start=s, finish=s + d) for i, (s, d) in enumerate(raw))
    table = [
        [data.draw(values_strategy) for _ in raw],
        [data.draw(values_strategy) for _ in raw],
    ]
    from choresched.core import AdditiveValuations

    inst = Instance(2, chores, AdditiveValuations(table))
    schedule = solve_two_agents(inst)
    assert check_ef1(schedule, inst).holds
    assert is_maximal(schedule, inst.graph())


@settings(max_examples=200, deadline=None)
@given(intervals_strategy)
def test_property_sequences_hold_their_invariants(raw):
    chores = tuple(Chore(id=i, start=s, finish=s + d) for i, (s, d) in enumerate(raw))
    inst = Instance(2, chores, MonotoneValuations(2, len(raw), lambda i, b: -len(b)))
    graph = inst.graph()
    verify_sequence_externally(interval_sequence_ef1(inst), graph)
    seq, hints = interval_sequence_ef2(inst)
    verify_sequence_externally(seq, graph, require_maximal=False)
    for step, hint in zip(seq.steps, hints):
        completed = step if hint is None else step.assign(*hint)
        assert is_maximal(completed, graph)


def full_failure(x, y, graph, require_maximal):
    """The full checks the step checker replaced, in the order it applies them."""
    if not is_feasible(y, graph):
        return "infeasible"
    if require_maximal and not is_maximal(y, graph):
        return "not maximal"
    if not adjacent(x, y):
        return "not adjacent"
    return None


def mutated_successors(rng, step, graph):
    """One successor per mutation kind; each may or may not break a check."""
    m, assignment = step.m, step.assignment
    out = []
    chore = rng.randrange(m)
    recolored = {None: rng.choice((RED, BLUE)), RED: BLUE, BLUE: RED}[assignment[chore]]
    out.append(step.assign(chore, recolored))
    assigned = [c for c in range(m) if assignment[c] is not None]
    if assigned:
        out.append(step.assign(rng.choice(assigned), None))
    if m >= 2:
        a, b = rng.sample(range(m), 2)
        agent = rng.choice((RED, BLUE))
        out.append(step.assign(a, agent).assign(b, agent))
    masks = (step.bundle_mask(RED), step.bundle_mask(BLUE))
    overlapping = [
        (c, agent)
        for c in range(m)
        for agent in (RED, BLUE)
        if assignment[c] != agent and graph.neighbor_masks[c] & masks[agent]
    ]
    if overlapping:
        out.append(step.assign(*rng.choice(overlapping)))
    return out


def test_step_checker_matches_full_checks_on_the_acceptance_corpus(two_agent_corpus):
    # Walk every sequence of the acceptance corpus with one checker; at each
    # step, a probe in the same state judges the real successor and its
    # mutations, and must flag exactly what is_feasible / is_maximal /
    # adjacent flag.
    rng = random.Random(3)
    runs = [(inst, interval_sequence_ef1(inst), True) for inst in two_agent_corpus.intervals]
    runs += [(inst, interval_sequence_ef2(inst)[0], False) for inst in two_agent_corpus.intervals]
    runs += [(inst, path_sequence(inst), True) for inst in two_agent_corpus.paths]
    verdicts = Counter()
    for inst, seq, require_maximal in runs:
        graph = inst.graph()
        walker = _StepChecker(graph, require_maximal)
        assert walker.failure(seq.steps[0]) is None
        for x, y in zip(seq.steps, seq.steps[1:]):
            for candidate in [y] + mutated_successors(rng, y, graph):
                expected = full_failure(x, candidate, graph, require_maximal)
                probe = _StepChecker(graph, require_maximal)
                probe.previous, probe.masks = walker.previous, walker.masks
                assert probe.failure(candidate) == expected
                verdicts[expected] += 1
            assert walker.failure(y) is None
    # Every verdict occurs, so no branch of the checker went untested.
    assert set(verdicts) == {None, "infeasible", "not maximal", "not adjacent"}


# A path 0-1-2-3 and step sequences that each break one invariant.
TRAP_GRAPH = path_instance([[-1] * 4] * 2).graph()
RBRB, BRBR = (RED, BLUE, RED, BLUE), (BLUE, RED, BLUE, RED)
BROKEN_SEQUENCES = [
    ("first step infeasible", [(RED, RED, BLUE, RED), BRBR], "infeasible"),
    ("later step infeasible", [RBRB, (RED, RED, RED, BLUE), BRBR], "infeasible"),
    ("first step not maximal", [(RED, None, None, BLUE), BRBR], "not maximal"),
    ("later step not maximal", [RBRB, (RED, None, RED, BLUE), BRBR], "not maximal"),
    ("steps not adjacent", [RBRB, BRBR], "not adjacent"),
    ("endpoints not swapped", [RBRB], "endpoints"),
]


# What _SequenceBuilder reports for each failure kind.
BUILDER_MESSAGES = {
    "infeasible": "infeasible",
    "not maximal": "non-maximal",
    "not adjacent": "broke adjacency",
    "endpoints": "endpoints",
}


def build_sequence(steps, require_maximal=True):
    builder = _SequenceBuilder(TRAP_GRAPH, "test", require_maximal)
    for s in steps:
        builder.emit(dict(enumerate(s)), "test")
    return builder.sequence()


class TestStepTraps:
    @pytest.mark.parametrize(
        "steps, failure",
        [case[1:] for case in BROKEN_SEQUENCES],
        ids=[c[0] for c in BROKEN_SEQUENCES],
    )
    def test_verify_sequence_raises(self, steps, failure):
        # The builder verifies every step as it is emitted and the endpoint
        # swap when the sequence is taken.
        with pytest.raises(InternalInvariantError, match=BUILDER_MESSAGES[failure]):
            build_sequence(steps)

    @pytest.mark.parametrize(
        "steps, failure",
        [case[1:] for case in BROKEN_SEQUENCES[:-1]],
        ids=[c[0] for c in BROKEN_SEQUENCES[:-1]],
    )
    def test_builder_raises(self, steps, failure):
        # The failing step raises from emit, before the sequence is taken.
        builder = _SequenceBuilder(TRAP_GRAPH, "test")
        with pytest.raises(InternalInvariantError, match=BUILDER_MESSAGES[failure]):
            for s in steps:
                builder.emit(dict(enumerate(s)), "test")

    def test_maximality_not_required(self):
        steps = (RBRB, (RED, None, RED, BLUE), (None, None, RED, BLUE))
        with pytest.raises(InternalInvariantError, match="endpoints"):
            build_sequence(steps, require_maximal=False)

    def test_failed_step_is_not_recorded(self):
        checker = _StepChecker(TRAP_GRAPH, require_maximal=True)
        assert checker.failure(Schedule(2, RBRB)) is None
        assert checker.failure(Schedule(2, BRBR)) == "not adjacent"
        assert checker.failure(Schedule(2, (RED, BLUE, RED, None))) == "not maximal"
        # Judged against RBRB: against BRBR, red would lose two chores.
        assert checker.failure(Schedule(2, (BLUE, None, RED, BLUE))) is None
