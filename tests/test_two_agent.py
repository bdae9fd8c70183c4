"""Two-agent sequence constructions and the EF1 selection."""

import random
import time
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
    build_conflict_graph,
    is_feasible,
    path_instance,
)
from choresched.generate import random_interval_instance, random_path_instance
from conftest import (
    N_TWO_AGENT_ADDITIVE,
    QueryCounter,
    independent_additive_failures,
    random_feasible_schedule,
    worst_chore_times_count,
)
from choresched import two_agent
from choresched.oracle import enumerate_maximal
from choresched.two_agent import (
    BLUE,
    RED,
    ScheduleSequence,
    _Coloring,
    _SequenceBuilder,
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

    @pytest.mark.parametrize(
        "schedule",
        [Schedule(3, (2, None)), Schedule(2, (None,)), Schedule(2, (None, 0, None))],
        ids=["three-agents", "shorter", "longer"],
    )
    def test_schedule_must_fit_the_classification(self, schedule):
        cls = classify_chores(path_instance([[-1] * 2] * 2).chores)
        with pytest.raises(InputError, match="two-agent schedule of the classified chores"):
            classify_supported(schedule, cls)

    @pytest.mark.parametrize("graph_m, chores_m", [(2, 3), (3, 2)])
    def test_graph_of_other_chores_rejected(self, graph_m, chores_m):
        chores = path_instance([[-1] * 3] * 2).chores
        with pytest.raises(InputError, match=f"^the graph has {graph_m} chores, the chore list {chores_m}$"):
            classify_chores(chores[:chores_m], build_conflict_graph(chores[:graph_m]))

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


def reference_support(chore, assignment, cls):
    """The neighbour walk that classify_supported replaced, kept as its reference.

    Returns which condition supports the chore (1, 2 or 3), or 0 for none.
    """
    earlier = later = 0
    later_by_color = [0, 0]
    for x in cls.graph.neighbors(chore):
        color = assignment[x]
        if color is None:
            continue
        if cls.rank[x] < cls.rank[chore]:
            earlier += 1
        else:
            later += 1
            later_by_color[color] += 1
    if earlier >= 3:
        return 1
    if later >= 2:
        return 3
    i = cls.bucket_of.get(chore)
    if i is not None:
        anchor_color = assignment[cls.marked[i - 1]]
        if anchor_color is not None and later_by_color[1 - anchor_color] > 0:
            return 2
    return 0


def test_classify_supported_matches_the_neighbour_walk():
    rng = random.Random(89)
    conditions = Counter()
    for k in range(2400):
        m = rng.randint(1, 30)
        if k % 3 == 0:
            inst = random_interval_instance(rng, 2, m)
        elif k % 3 == 1:  # nested
            inst = random_interval_instance(rng, 2, m, max_len=8, window=m)
        else:  # unmarked-rich: long chores packed into a short window
            inst = random_interval_instance(rng, 2, m, max_len=2 * m, window=max(1, m // 2))
        graph = inst.graph()
        cls = classify_chores(inst.chores, graph)
        for c in range(m):
            earlier = {x for x in graph.neighbors(c) if cls.rank[x] < cls.rank[c]}
            assert cls.earlier[c] == sum(1 << x for x in earlier)
            assert cls.later[c] == sum(1 << x for x in graph.neighbors(c) - earlier)
        schedules = [random_feasible_schedule(rng, inst) for _ in range(3)]
        schedules += interval_sequence_ef1(inst).steps
        for schedule in schedules:
            expected = {
                c: reference_support(c, schedule.assignment, cls)
                for c in range(m)
                if schedule.assignment[c] is None
            }
            conditions.update(expected.values())
            assert classify_supported(schedule, cls) == {c: v > 0 for c, v in expected.items()}
    # Each condition decides some chore, and some chores are unsupported.
    assert set(conditions) == {0, 1, 2, 3}


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


def reference_ef1_holds(schedule, instance):
    """EF1 decided pair by pair: envious agent i ascending, then envied agent
    j ascending, then single removals in chore-id order, stopping at the
    first pair no removal cures.  An agent holding nothing never envies and
    is not valued.  With two agents each envious agent has one pair, so this
    is the query order of checkers._efk_holds, which searches each envious
    agent once."""
    bundles = schedule.bundles()
    for i, own_bundle in enumerate(bundles):
        if not own_bundle:
            continue
        own = instance.value(i, own_bundle)
        for j, theirs in enumerate(bundles):
            if j == i:
                continue
            other = instance.value(i, theirs)
            if own < other and not any(
                instance.value(i, own_bundle - {c}) >= other for c in sorted(own_bundle)
            ):
                return False
    return True


def reference_select_ef1(sequence, instance):
    """select_ef1 as it was before the delta walk: agent 0's envy is read off
    every fully materialized step, each bundle valued as a whole, and each
    candidate is judged by reference_ef1_holds."""
    steps = sequence.steps

    def envies(step):
        own, other = step.bundles()
        return instance.value(0, own) < instance.value(0, other)

    initial = envies(steps[0])
    flip = next((t for t in range(1, len(steps)) if envies(steps[t]) != initial), None)
    if flip is not None:
        x, y = steps[flip - 1], steps[flip]
        candidates = [x, y, x.swap_agents(), y.swap_agents()]
    elif initial:
        raise InternalInvariantError("agent 0 envies in every step of a bundle-swapped sequence")
    else:
        first, last = steps[0], steps[-1]
        candidates = [first, first.swap_agents(), last, last.swap_agents()]
    for candidate in candidates:
        if reference_ef1_holds(candidate, instance):
            if not is_maximal(candidate, instance.graph()):
                raise InternalInvariantError("selected EF1 schedule is not maximal")
            return candidate
    raise InternalInvariantError("none of the four flip candidates is EF1")


def compare_selections(sequence, instance, counter):
    """select_ef1 and the reference on one sequence: the outcome (the chosen
    schedule or the trap's text) and, for monotone profiles, the query count."""
    outcomes = []
    for select in (select_ef1, reference_select_ef1):
        counter.queries = 0
        try:
            outcomes.append(select(sequence, instance))
        except InternalInvariantError as exc:
            outcomes.append(str(exc))
        outcomes.append(counter.queries)
    got, got_queries, want, want_queries = outcomes
    assert got == want
    if not instance.valuations.is_additive:
        assert got_queries == want_queries
    if isinstance(want, Schedule):
        assert check_ef1(want, instance).holds
    return want


@pytest.fixture
def eager(monkeypatch):
    """One list per _SequenceBuilder created, of every state it recorded as a
    Schedule: the eager build the delta log replaced."""
    eager = []
    init, emit = _SequenceBuilder.__init__, _SequenceBuilder.emit

    def snapshot_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        eager.append([Schedule(2, tuple(self.status))])

    def snapshot_emit(self, tag):
        emit(self, tag)
        eager[-1].append(Schedule(2, tuple(self.status)))

    monkeypatch.setattr(_SequenceBuilder, "__init__", snapshot_init)
    monkeypatch.setattr(_SequenceBuilder, "emit", snapshot_emit)
    return eager


def test_flip_search_matches_the_materialized_reference(two_agent_corpus, eager):
    counter = QueryCounter()
    square = counter.wrap(lambda i, b: -(len(b) ** 2))
    monotone = []
    for inst in two_agent_corpus.intervals[: len(two_agent_corpus.monotone)]:
        table = inst.valuations.table
        summed = counter.wrap(lambda i, b, table=table: sum(table[i][c] for c in b))
        monotone += [Instance(2, inst.chores, MonotoneValuations(2, inst.m, fn)) for fn in (square, summed)]
    runs = [(inst, interval_sequence_ef1) for inst in two_agent_corpus.intervals + monotone]
    runs += [(inst, path_sequence) for inst in two_agent_corpus.paths]
    monotone_queries = 0
    for k, (inst, construct) in enumerate(runs):
        eager.clear()
        seq = construct(inst)
        (steps,) = eager
        assert seq.steps == tuple(steps)
        assert ScheduleSequence(steps=steps, tags=seq.tags) == seq
        sequences = [seq]
        # Reversed and swapped steps are hand-built swap-ended adjacent
        # sequences with other flips; the first 2,000 additive instances and
        # every later run get them, which bounds the test's time.
        if k < 2000 or k >= N_TWO_AGENT_ADDITIVE:
            sequences.append(ScheduleSequence(steps=steps[::-1], tags=seq.tags))
            sequences.append(ScheduleSequence(steps=[s.swap_agents() for s in steps], tags=seq.tags))
        for sequence in sequences:
            assert isinstance(compare_selections(sequence, inst, counter), Schedule)
            if not inst.valuations.is_additive:
                monotone_queries += counter.queries
    assert monotone_queries > 0


def test_flip_search_matches_the_reference_on_arbitrary_hand_built_sequences():
    # Random feasible schedules strung together are neither adjacent nor
    # swap-ended, so every trap of the selection fires somewhere.
    rng = random.Random(41)
    counter = QueryCounter()
    outcomes = Counter()
    for _ in range(3000):
        m = rng.randint(1, 7)
        inst = random_interval_instance(rng, 2, m, vmin=-4)
        if rng.random() < 0.5:
            table = inst.valuations.table
            fn = counter.wrap(lambda i, b, table=table: sum(table[i][c] for c in b) - len(b) // 2)
            inst = Instance(2, inst.chores, MonotoneValuations(2, m, fn))
        steps = [random_feasible_schedule(rng, inst) for _ in range(rng.randint(1, 5))]
        sequence = ScheduleSequence(steps=steps, tags=["step"] * len(steps))
        result = compare_selections(sequence, inst, counter)
        outcomes[result if isinstance(result, str) else "chosen"] += 1
    assert set(outcomes) == {
        "chosen",
        "agent 0 envies in every step of a bundle-swapped sequence",
        "selected EF1 schedule is not maximal",
        "none of the four flip candidates is EF1",
    }


@pytest.mark.parametrize(
    "intervals, table, verdicts",
    [
        # The flip pair's first step x is EF1.
        ([(3, 7), (0, 3)], [[0, -1], [-1, -2]], [True]),
        # x and y fail; x's swap, the first swapped candidate, wins.
        ([(6, 10), (6, 10), (0, 3)], [[0, -1, -1], [-2, -1, -2]], [False, False, True]),
        # Only y's swap, the last candidate, is EF1.
        ([(3, 6), (0, 2), (1, 4), (6, 9)], [[-2, -2, -2, -4], [-4, -4, 0, -1]], [False] * 3 + [True]),
    ],
)
def test_select_ef1_builds_a_swapped_candidate_only_when_it_is_tried(monkeypatch, intervals, table, verdicts):
    from choresched.core import AdditiveValuations

    chores = tuple(Chore(id=i, start=s, finish=f) for i, (s, f) in enumerate(intervals))
    inst = Instance(2, chores, AdditiveValuations(table))
    seq = interval_sequence_ef1(inst)
    tried, swaps = [], []
    efk_holds, swap_agents = two_agent._efk_holds, Schedule.swap_agents

    def counted_efk_holds(schedule, instance, k):
        tried.append(efk_holds(schedule, instance, k))
        return tried[-1]

    def counted_swap_agents(self, *args):
        swaps.append(self)
        return swap_agents(self, *args)

    monkeypatch.setattr(two_agent, "_efk_holds", counted_efk_holds)
    monkeypatch.setattr(Schedule, "swap_agents", counted_swap_agents)
    chosen = select_ef1(seq, inst)
    assert tried == verdicts
    # Candidates 3 and 4 are the flip pair's swaps; the first two are not.
    assert len(swaps) == max(0, len(verdicts) - 2)
    assert chosen == reference_select_ef1(seq, inst)


def queries_within_bound(instance, counter):
    """solve_two_agents' value queries, held to 2 * (len(sequence) + 4 * m).

    The documented bound, two per step up to the flip and then at most 4 + m
    per flip candidate, is within that figure once m >= 4; the smaller
    instances here stay within it too."""
    counter.queries = 0
    solve_two_agents(instance)
    queries = counter.queries
    assert queries <= 2 * (len(interval_sequence_ef1(instance)) + 4 * instance.m)
    return queries


def test_monotone_solve_stays_within_the_query_bound(two_agent_corpus):
    counter = QueryCounter()
    square = counter.wrap(lambda i, b: -(len(b) ** 2))
    total = sum(
        queries_within_bound(Instance(2, inst.chores, MonotoneValuations(2, inst.m, square)), counter)
        for inst in two_agent_corpus.monotone
    )
    assert total > 0


@pytest.mark.parametrize("m", [40, 80, 120, 160, 200])
def test_worst_chore_solve_stays_within_the_query_bound(m):
    # The default values in [-10, 0] tie many worst chores, which sends an
    # unbounded minimal-removal search to 2.4 million queries at seed 8,
    # m = 120.
    counter = QueryCounter()
    for seed in range(12):
        inst = random_interval_instance(random.Random(seed), 2, m)
        fn = counter.wrap(worst_chore_times_count(inst.valuations.table))
        queries_within_bound(Instance(2, inst.chores, MonotoneValuations(2, m, fn)), counter)


def test_worst_chore_seed_8_solves_in_a_tenth_of_a_second():
    inst = random_interval_instance(random.Random(8), 2, 120)
    fn = worst_chore_times_count(inst.valuations.table)
    opaque = Instance(2, inst.chores, MonotoneValuations(2, 120, fn))
    start = time.perf_counter()
    schedule = solve_two_agents(opaque)
    assert time.perf_counter() - start < 0.1
    assert check_ef1(schedule, opaque).holds


class TestLargeInstancesIndependently:
    """solve_two_agents at m = 2000, judged by a check that shares no code with it."""

    @pytest.mark.parametrize(
        "max_len, window",
        [(4, None), (40, 1000)],
        ids=["short-chores", "long-chores-in-a-short-window"],
    )
    @pytest.mark.parametrize("seed", [1, 2])
    def test_maximal_conflict_free_ef1(self, seed, max_len, window):
        inst = random_interval_instance(random.Random(seed), 2, 2000, max_len=max_len, window=window)
        schedule = solve_two_agents(inst)
        assert independent_additive_failures(inst, schedule, complete=False) == []


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


class TestScheduleSequence:
    def test_deltas_hold_the_changed_chores_in_id_order(self):
        seq = path_sequence(path_instance([[-1] * 4] * 2))
        assert seq.initial == Schedule(2, (0, 1, 0, 1))
        assert seq.deltas == (((0, 1), (1, None)), ((1, 0), (2, None)), ((2, 1), (3, 0)))
        assert len(seq) == 4 and "steps" not in vars(seq)
        assert seq.steps[-1] == Schedule(2, (1, 0, 1, 0))

    def test_selection_never_materializes_the_steps(self):
        inst = random_interval_instance(random.Random(5), 2, 300)
        seq = interval_sequence_ef1(inst)
        select_ef1(seq, inst)
        seq.trace_lines()
        assert "steps" not in vars(seq)

    def test_hand_built_steps_are_kept_and_must_match_in_size(self):
        steps = (Schedule(2, (0, None)), Schedule(2, (0, 1)))
        seq = ScheduleSequence(steps=steps, tags=("initial", "add"))
        assert seq.steps is steps
        assert seq.deltas == (((1, 1),),)
        with pytest.raises(InputError, match="different chores"):
            ScheduleSequence(steps=(Schedule(2, (0, 1)), Schedule(2, (0,))), tags=("a", "b"))

    def test_steps_must_be_two_agent_schedules(self):
        with pytest.raises(InputError, match="two-agent"):
            ScheduleSequence(steps=(Schedule(3, (2, 0)),), tags=("initial",))
        with pytest.raises(InputError, match="two-agent"):
            ScheduleSequence(steps=(Schedule(2, (0, 1)), Schedule(3, (1, 0))), tags=("a", "b"))

    def test_selection_rejects_a_sequence_over_other_chores(self):
        inst = path_instance([[-1, -2]] * 2)
        seq = path_sequence(path_instance([[-1, -2, -3]] * 2))
        with pytest.raises(InputError, match="covers 3 chores"):
            select_ef1(seq, inst)


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
    """The full checks the builder's delta checks replace, in the order it applies them."""
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
    masks = [sum(1 << c for c in step.bundle(agent)) for agent in (RED, BLUE)]
    overlapping = [
        (c, agent)
        for c in range(m)
        for agent in (RED, BLUE)
        if assignment[c] != agent and graph.neighbor_masks[c] & masks[agent]
    ]
    if overlapping:
        out.append(step.assign(*rng.choice(overlapping)))
    return out


# The builder's failure texts, each with the verdict full_failure gives.
VERDICTS = {
    "produced an infeasible schedule": "infeasible",
    "produced a non-maximal schedule": "not maximal",
    "broke adjacency": "not adjacent",
}


OTHER_COLOR = {None: RED, RED: BLUE, BLUE: None}


def write(status, assignment):
    """Write an assignment into a coloring through its logged item writes.

    Only the chores whose color differs are written: the coloring drops a
    same-color write, so its state and log are those of writing every chore."""
    for c, color in enumerate(assignment):
        if status[c] != color:
            status[c] = color


def probe_verdict(builder):
    """Emit one step and read the verdict from the failure text, if any."""
    try:
        builder.emit("step")
    except InternalInvariantError as exc:
        return next(v for text, v in VERDICTS.items() if str(exc) == f"probe: step {text}")
    return None


def test_step_checker_matches_full_checks_on_the_acceptance_corpus(two_agent_corpus):
    # At every step x of every sequence of the acceptance corpus, a probe
    # builder starts at x, gets the real successor y or one of its mutations
    # written into its coloring, and must flag exactly what is_feasible /
    # is_maximal / adjacent flag.  The probe for y also writes one chore away
    # and back within the step, which must count as no change, and then
    # writes one chore that y leaves alone past the log, which sequence()
    # must reject.
    rng = random.Random(3)
    runs = [(inst, interval_sequence_ef1(inst), True) for inst in two_agent_corpus.intervals]
    runs += [(inst, interval_sequence_ef2(inst)[0], False) for inst in two_agent_corpus.intervals]
    runs += [(inst, path_sequence(inst), True) for inst in two_agent_corpus.paths]
    verdicts = Counter()
    bypasses = 0
    for inst, seq, require_maximal in runs:
        graph = inst.graph()
        for x, y in zip(seq.steps, seq.steps[1:]):
            for candidate in [y] + mutated_successors(rng, y, graph):
                expected = full_failure(x, candidate, graph, require_maximal)
                status = _Coloring(x.assignment)
                builder = _SequenceBuilder(graph, "probe", status, require_maximal)
                write(status, candidate.assignment)
                if candidate is y:
                    c = rng.randrange(inst.m)
                    status[c] = OTHER_COLOR[y.assignment[c]]
                    status[c] = y.assignment[c]
                    y_probe = status, builder
                assert probe_verdict(builder) == expected
                verdicts[expected] += 1
            status, builder = y_probe
            assert builder.assignment == list(y.assignment)
            assert builder.deltas[-1] == tuple(
                (c, b) for c, (a, b) in enumerate(zip(x.assignment, y.assignment)) if a != b
            )
            kept = [c for c in range(inst.m) if x.assignment[c] == y.assignment[c]]
            if kept:
                c = rng.choice(kept)
                list.__setitem__(status, c, OTHER_COLOR[y.assignment[c]])
                with pytest.raises(InternalInvariantError, match="escaped the step log"):
                    builder.sequence()
                bypasses += 1
    # Every verdict occurs, so no branch of the trap went untested.
    assert set(verdicts) == {None, "infeasible", "not maximal", "not adjacent"}
    assert bypasses > 0


def test_step_checker_passes_full_checks_at_large_m(eager):
    # The differential above stops at m = 12, where a recheck region or an
    # insertable set holds a few chores.  Here every recorded state of both
    # interval constructions, sparse and dense, at m = 300 and 1000 is held to
    # the full checks the builder's delta checks stand for.
    for m in (300, 1000):
        for max_len, window in [(4, None), (40, m)]:
            inst = random_interval_instance(random.Random(m), 2, m, max_len=max_len, window=window)
            graph = inst.graph()
            for construct, require_maximal in [
                (interval_sequence_ef1, True),
                (lambda inst: interval_sequence_ef2(inst)[0], False),
            ]:
                eager.clear()
                seq = construct(inst)
                (steps,) = eager
                assert seq.steps == tuple(steps)
                verify_sequence_externally(seq, graph, require_maximal)


def test_builder_traps_the_initial_step_and_the_endpoints():
    graph = path_instance([[-1] * 3] * 2).graph()  # chores 0 - 1 - 2
    with pytest.raises(InternalInvariantError, match="^probe: initial produced an infeasible schedule$"):
        _SequenceBuilder(graph, "probe", _Coloring([RED, RED, None]))
    # Chores 0 and 2 are blocked in blue only, so each still fits red.
    with pytest.raises(InternalInvariantError, match="^probe: initial produced a non-maximal schedule$"):
        _SequenceBuilder(graph, "probe", _Coloring([None, BLUE, None]))
    builder = _SequenceBuilder(graph, "probe", _Coloring([None, BLUE, None]), require_maximal=False)
    assert builder.insertable == 0b101
    status = _Coloring([RED, BLUE, RED])
    builder = _SequenceBuilder(graph, "probe", status)
    status[0], status[1] = BLUE, None
    builder.emit("step")
    with pytest.raises(InternalInvariantError, match="^probe: endpoints are not bundle swaps of each other$"):
        builder.sequence()


def reference_completion_hint(step, graph, rank):
    """interval_sequence_ef2's hint as it was before the builder kept the
    insertable set: every chore of a materialized step is scanned, and the
    completed step gets a full maximality test."""
    bundle_masks = [sum(1 << c for c in step.bundle(agent)) for agent in (RED, BLUE)]
    insertable = [
        (c, agent)
        for c, a in enumerate(step.assignment)
        if a is None
        for agent in (RED, BLUE)
        if not graph.neighbor_masks[c] & bundle_masks[agent]
    ]
    if not insertable:
        return None
    chore, agent = min(insertable, key=lambda ca: (rank[ca[0]], ca[1]))
    if not is_maximal(step.assign(chore, agent), graph):
        raise InternalInvariantError(
            "near-maximal step needed more than one insertion to become maximal"
        )
    return chore, agent


def hint_outcome(hint, *args):
    """A hint function's result, or the text of the trap it raised."""
    try:
        return hint(*args)
    except InternalInvariantError as exc:
        return str(exc)


LETTERS = {RED: "R", BLUE: "B", None: "N"}


def test_ef2_hints_match_the_materialized_reference(two_agent_corpus, eager):
    # The reference scans the eager snapshots of every step.  On the first
    # 2,000 corpus instances, probe builders also start at every step x and
    # emit each feasible adjacent mutation y of it, which carries x's
    # insertable set into y, and start at random feasible schedules, which
    # are often more than one insertion short of maximal.
    large = [
        random_interval_instance(random.Random(1), 2, 2000, max_len=max_len, window=window)
        for max_len, window in [(4, None), (40, 1000)]
    ]
    rng = random.Random(17)
    outcomes = Counter()
    for k, inst in enumerate(two_agent_corpus.intervals + large):
        graph = inst.graph()
        rank = classify_chores(inst.chores, graph).rank
        eager.clear()
        seq, hints = interval_sequence_ef2(inst)
        (steps,) = eager
        assert "steps" not in vars(seq)
        assert seq.trace_lines() == [
            "".join(LETTERS[a] for a in step.assignment) + " " + tag
            for step, tag in zip(steps, seq.tags)
        ]
        assert hints == tuple(reference_completion_hint(step, graph, rank) for step in steps)
        outcomes.update("sequence hint" if hint else "sequence none" for hint in hints)
        if k >= 2000:
            continue
        for x in steps:
            status = _Coloring(random_feasible_schedule(rng, inst).assignment)
            probes = [(_SequenceBuilder(graph, "probe", status, False), Schedule(2, tuple(status)))]
            for y in mutated_successors(rng, x, graph):
                if is_feasible(y, graph) and adjacent(x, y):
                    status = _Coloring(x.assignment)
                    builder = _SequenceBuilder(graph, "probe", status, False)
                    write(status, y.assignment)
                    builder.emit("probe")
                    probes.append((builder, y))
            for builder, y in probes:
                got = hint_outcome(builder.completion_hint, rank)
                assert got == hint_outcome(reference_completion_hint, y, graph, rank)
                outcomes[type(got).__name__] += 1
    # Hints, maximal steps and the trap all occur.
    assert set(outcomes) == {"sequence hint", "sequence none", "tuple", "NoneType", "str"}


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


def build_steps(steps, require_maximal=True):
    """A builder that started at the first step and emitted the others."""
    status = _Coloring(steps[0])
    builder = _SequenceBuilder(TRAP_GRAPH, "test", status, require_maximal)
    for s in steps[1:]:
        write(status, s)
        builder.emit("test")
    return builder


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
            build_steps(steps).sequence()

    @pytest.mark.parametrize(
        "steps, failure",
        [case[1:] for case in BROKEN_SEQUENCES[:-1]],
        ids=[c[0] for c in BROKEN_SEQUENCES[:-1]],
    )
    def test_builder_raises(self, steps, failure):
        # The failing step raises from the constructor or emit, before the
        # sequence is taken.
        with pytest.raises(InternalInvariantError, match=BUILDER_MESSAGES[failure]):
            build_steps(steps)

    def test_maximality_not_required(self):
        steps = (RBRB, (RED, None, RED, BLUE), (None, None, RED, BLUE))
        with pytest.raises(InternalInvariantError, match="endpoints"):
            build_steps(steps, require_maximal=False).sequence()
