"""Exhaustive enumeration, existence queries, and the failure demos."""

import itertools
import random
import re

import pytest

from choresched import checkers
from choresched.checkers import (
    _utilities,
    check_ef1,
    check_efk,
    check_efx,
    is_complete,
    is_maximal,
)
from choresched.core import (
    Chore,
    InputError,
    Instance,
    AdditiveValuations,
    MonotoneValuations,
    Schedule,
    SizeGuardError,
    path_instance,
)
from choresched.generate import random_interval_instance, random_path_instance
from choresched.oracle import (
    CRITERIA,
    ExistenceQuery,
    _frontier,
    _search,
    _valued,
    demo_round_robin,
    demo_top_trading_envy_cycle,
    enumerate_maximal,
    exists,
    is_pareto_optimal,
    max_utilitarian_maximal,
)

from conftest import (
    additive_minus_squared_count,
    naive_enumerate_maximal,
    worst_chore_times_count,
)


def triangle_instance(n=2):
    chores = tuple(Chore(id=i, start=0, finish=3) for i in range(3))
    return Instance(n, chores, AdditiveValuations([[-1, -2, -3]] * n))


def interval_instance(n, intervals):
    chores = tuple(Chore(id=i, start=s, finish=f) for i, (s, f) in enumerate(intervals))
    return Instance(n, chores, AdditiveValuations([[-1] * len(intervals)] * n))


# Small adversarial interval families, m <= 7.  The search decides chores in
# id order, not start order, so each family also runs with shuffled ids.
FAMILIES = {
    "nested": [(0, 12), (1, 11), (2, 10), (3, 9), (13, 20), (14, 19), (15, 18)],
    "identical": [(0, 5)] * 6,
    "staircase": [(i, i + 3) for i in range(7)],
    "equal-finish": [(0, 6), (2, 6), (4, 6), (6, 9), (7, 9), (8, 9), (5, 7)],
    "disjoint-paths": [(0, 2), (1, 3), (2, 4), (3, 5), (10, 12), (11, 13), (12, 14)],
}


def family_instances():
    """Every family, its ids as given and shuffled three times, for 1 to 3 agents."""
    for family, intervals in FAMILIES.items():
        rng = random.Random(family)
        for order in [intervals] + [rng.sample(intervals, len(intervals)) for _ in range(3)]:
            for n in (1, 2, 3):
                yield interval_instance(n, order)


def monotone_twin(inst, profile):
    """The instance's chores under a monotone profile built from its value table."""
    return Instance(
        inst.n, inst.chores, MonotoneValuations(inst.n, inst.m, profile(inst.valuations.table))
    )


def ef1_po_corpus(rng):
    """Golden, random interval and path, adversarial and monotone instances."""
    instances = [path_instance([values] * 2) for _, values in GOLDEN_NONE]
    for _ in range(300):
        n = rng.choice([2, 3])
        instances.append(random_interval_instance(rng, n, rng.randint(1, 8 if n == 2 else 6)))
    for _ in range(100):
        n = rng.choice([2, 3])
        instances.append(random_path_instance(rng, n, rng.randint(1, 9 if n == 2 else 7)))
    instances.extend(family_instances())
    for inst in instances[3:103]:
        for profile in (worst_chore_times_count, additive_minus_squared_count):
            instances.append(monotone_twin(inst, profile))
    return instances


def exists_corpus(rng):
    """Golden, adversarial, random interval and path instances (1 to 4
    agents, m <= 9), and monotone twins of a quarter of the random ones."""
    instances = [path_instance([values] * 2) for _, values in GOLDEN_NONE]
    instances.extend(family_instances())
    randoms = []
    for _ in range(300):
        n = rng.randint(1, 4)
        make = rng.choice([random_interval_instance, random_path_instance])
        randoms.append(make(rng, n, rng.randint(1, {1: 9, 2: 9, 3: 7, 4: 6}[n])))
    instances.extend(randoms)
    for inst in randoms[:75]:
        for profile in (worst_chore_times_count, additive_minus_squared_count):
            instances.append(monotone_twin(inst, profile))
    return instances


def assert_matches_naive(inst):
    """The unpruned enumeration, order included, and every leaf maximal."""
    found = list(enumerate_maximal(inst))
    assert found == naive_enumerate_maximal(inst)
    graph = inst.graph()
    assert all(is_maximal(schedule, graph) for schedule in found)
    return found


class TestEnumerateMaximal:
    def test_single_chore_two_agents(self):
        inst = path_instance([[-1]] * 2)
        found = list(enumerate_maximal(inst))
        assert found == [Schedule(2, (0,)), Schedule(2, (1,))]

    def test_triangle_assigns_exactly_two(self):
        found = list(enumerate_maximal(triangle_instance()))
        assert found
        for schedule in found:
            assert len(schedule.assigned()) == 2
            assert not is_complete(schedule)

    def test_path_of_four_matches_naive_recount(self):
        assert_matches_naive(path_instance([[-1, -2, -3, -4]] * 2))

    def test_random_counts_match_naive(self):
        rng = random.Random(3)
        for _ in range(50):
            assert_matches_naive(random_interval_instance(rng, rng.randint(1, 3), rng.randint(1, 7)))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_order_matches_naive_on_adversarial_families(self, family):
        intervals = FAMILIES[family]
        rng = random.Random(family)
        orders = [intervals] + [rng.sample(intervals, len(intervals)) for _ in range(3)]
        for order in orders:
            for n in (1, 2, 3):
                assert_matches_naive(interval_instance(n, order))

    def test_chore_without_neighbours_is_always_assigned(self):
        # Chore 1 overlaps nothing, so it is due at its own decision.
        inst = interval_instance(2, [(0, 2), (5, 6), (1, 3), (2, 4)])
        assert inst.graph().neighbor_masks[1] == 0
        assert all(s.assignment[1] is not None for s in assert_matches_naive(inst))

    def test_chore_whose_last_neighbour_is_itself(self):
        # Chore 3 overlaps only lower ids, so it is due at its own decision:
        # left out, it must already overlap both bundles.
        inst = interval_instance(2, [(0, 2), (3, 5), (6, 8), (1, 4)])
        assert inst.graph().neighbor_masks[3].bit_length() - 1 < 3
        found = assert_matches_naive(inst)
        assert {s.assignment[3] for s in found} == {0, 1, None}

    def test_everything_yielded_is_feasible_and_maximal(self):
        rng = random.Random(13)
        for _ in range(100):
            inst = random_interval_instance(rng, 2, rng.randint(1, 8))
            for schedule in enumerate_maximal(inst):
                assert is_maximal(schedule, inst.graph())

    def test_deterministic_order(self):
        inst = path_instance([[-1, -2, -3]] * 2)
        assert list(enumerate_maximal(inst)) == list(enumerate_maximal(inst))

    def test_guard(self):
        inst = path_instance([[-1] * 17] * 2)
        with pytest.raises(SizeGuardError):
            list(enumerate_maximal(inst))


GOLDEN_NONE = [
    ("efx", [-1, -1, -1, -4]),
    ("ef1+po", [-2, -10, -1, -10, -2]),
    ("ef1+complete", [-1, -3, -1, -3]),
]


class TestExists:
    @pytest.mark.parametrize("criterion,values", GOLDEN_NONE)
    def test_golden_non_existence(self, criterion, values):
        inst = path_instance([values] * 2)
        assert exists(ExistenceQuery(instance=inst, criterion=criterion)) is None

    @pytest.mark.parametrize("criterion,values", GOLDEN_NONE)
    def test_ef1_maximal_still_exists_there(self, criterion, values):
        inst = path_instance([values] * 2)
        witness = exists(ExistenceQuery(instance=inst, criterion="ef1"))
        assert witness is not None
        assert check_ef1(witness, inst).holds
        assert is_maximal(witness, inst.graph())

    def test_ef1_po_matches_pairwise_dominance(self):
        # Reference: the first EF1 schedule, in enumeration order, that no
        # maximal schedule Pareto-dominates, found by comparing every pair.
        # Monotone profiles take the search's one fallback.
        for inst in ef1_po_corpus(random.Random(11)):
            schedules = list(enumerate_maximal(inst))
            utilities = [
                tuple(inst.value(i, s.bundle(i)) for i in range(inst.n)) for s in schedules
            ]
            expected = next(
                (
                    s
                    for s, mine in zip(schedules, utilities)
                    if not any(
                        theirs != mine and all(t >= o for t, o in zip(theirs, mine))
                        for theirs in utilities
                    )
                    and check_ef1(s, inst).holds
                ),
                None,
            )
            assert exists(ExistenceQuery(instance=inst, criterion="ef1+po")) == expected

    @pytest.mark.parametrize("n", [3, 4])
    def test_ef1_po_with_many_tied_vectors(self, n):
        # Equal values on an interval graph give many schedules per vector
        # and many vectors tied in some coordinates.
        rng = random.Random(n)
        for _ in range(20):
            inst = random_interval_instance(rng, n, rng.randint(4, 7), vmin=-2, vmax=-1)
            inst = Instance(n, inst.chores, AdditiveValuations([inst.valuations.table[0]] * n))
            schedules = list(enumerate_maximal(inst))
            utilities = [_utilities(s.bundles(), inst) for s in schedules]
            distinct = set(utilities)
            undominated = {
                mine for mine in distinct if not any(_dominated_by(w, mine) for w in distinct)
            }
            expected = next(
                (
                    s
                    for s, mine in zip(schedules, utilities)
                    if mine in undominated and check_ef1(s, inst).holds
                ),
                None,
            )
            assert exists(ExistenceQuery(instance=inst, criterion="ef1+po")) == expected

    def test_exists_matches_the_first_schedule_the_public_checker_accepts(self):
        # Reference: every maximal schedule in enumeration order, each judged
        # by the public verdict.  EF1, and with it EF2, has a witness on every
        # instance here (for two agents the paper proves one always exists);
        # each other criterion answers both ways.
        references = {
            "ef": lambda s, inst: check_efk(s, inst, 0).holds,
            "ef1": lambda s, inst: check_efk(s, inst, 1).holds,
            "efk": lambda s, inst: check_efk(s, inst, 2).holds,
            "efx": lambda s, inst: check_efx(s, inst).holds,
            "ef1+complete": lambda s, inst: is_complete(s) and check_ef1(s, inst).holds,
        }
        answers = set()
        for inst in exists_corpus(random.Random(19)):
            schedules = list(enumerate_maximal(inst))
            for criterion, accepts in references.items():
                expected = next((s for s in schedules if accepts(s, inst)), None)
                query = ExistenceQuery(instance=inst, criterion=criterion, k=2)
                assert exists(query) == expected
                answers.add((criterion, expected is None))
        assert answers == {(c, False) for c in references} | {
            ("ef", True), ("efx", True), ("ef1+complete", True)
        }

    def test_no_leaf_is_proven_feasible_again(self, monkeypatch):
        # The search builds every leaf feasible for the instance's agents, so
        # no criterion checks a leaf against the instance again.
        calls = []
        require_feasible = checkers._require_feasible

        def counted(schedule, instance):
            calls.append(schedule)
            require_feasible(schedule, instance)

        monkeypatch.setattr(checkers, "_require_feasible", counted)
        corpus = exists_corpus(random.Random(23))
        # The golden and adversarial instances, random ones, monotone twins.
        answers = [
            exists(ExistenceQuery(instance=inst, criterion=criterion, k=2)) is None
            for inst in corpus[:60] + corpus[-20:]
            for criterion in CRITERIA
        ]
        assert calls == [] and set(answers) == {True, False}

    def test_only_the_witness_is_built_as_a_schedule(self, monkeypatch):
        # Each leaf is decided from bundles of the search's assignment: one
        # Schedule is built, the witness returned, and none for a None answer.
        built = []
        post_init = Schedule.__post_init__

        def counted(schedule):
            built.append(schedule)
            post_init(schedule)

        monkeypatch.setattr(Schedule, "__post_init__", counted)
        answers = set()
        for inst in exists_corpus(random.Random(19)):
            for criterion in CRITERIA:
                built.clear()
                witness = exists(ExistenceQuery(instance=inst, criterion=criterion, k=2))
                assert [id(s) for s in built] == ([] if witness is None else [id(witness)])
                answers.add(witness is None)
        assert answers == {True, False}

    def test_efk_needs_k(self):
        inst = path_instance([[-1]] * 2)
        with pytest.raises(InputError):
            ExistenceQuery(instance=inst, criterion="efk")
        assert exists(ExistenceQuery(instance=inst, criterion="efk", k=1)) is not None

    @pytest.mark.parametrize("k", [1.5, 1.0, True], ids=["fraction", "float", "bool"])
    def test_non_integer_k_rejected(self, k):
        # Accepted, 1.5 would fail deep in the removal search with a bare
        # TypeError, and True would be read as 1.
        inst = path_instance([[-1]] * 2)
        with pytest.raises(InputError, match=f"^k must be an integer, got {k!r}$"):
            ExistenceQuery(instance=inst, criterion="efk", k=k)

    @pytest.mark.parametrize("instance", [[1, 2], None, "path"])
    def test_non_instance_rejected(self, instance):
        # [1, 2] used to pass and fail in the search with a bare AttributeError.
        text = f"instance must be an Instance, got {instance!r}"
        with pytest.raises(InputError, match=f"^{re.escape(text)}$"):
            ExistenceQuery(instance, "ef1")

    @pytest.mark.parametrize("k", [None, -1])
    def test_missing_or_negative_k_keeps_its_text(self, k):
        inst = path_instance([[-1]] * 2)
        with pytest.raises(InputError, match="^criterion 'efk' needs a non-negative k$"):
            ExistenceQuery(instance=inst, criterion="efk", k=k)

    def test_unknown_criterion(self):
        inst = path_instance([[-1]] * 2)
        with pytest.raises(InputError):
            ExistenceQuery(instance=inst, criterion="nope")


def _dominated_by(theirs, mine):
    return theirs != mine and all(t >= o for t, o in zip(theirs, mine))


def _alternating(inst):
    """The maximal schedule of a two-agent path that alternates its agents."""
    return Schedule.from_bundles(2, inst.m, [range(0, inst.m, 2), range(1, inst.m, 2)])


# Every public entry that enumerates, as a call on an instance with the
# guard passed through, or left at its default.
GUARDED = [
    *(
        pytest.param(
            lambda inst, c=c, **guard: exists(ExistenceQuery(inst, c, k=1, **guard)),
            id=f"exists-{c}",
        )
        for c in CRITERIA
    ),
    pytest.param(lambda inst, **guard: list(enumerate_maximal(inst, **guard)), id="enumerate"),
    pytest.param(
        lambda inst, **guard: is_pareto_optimal(_alternating(inst), inst, **guard), id="pareto"
    ),
    pytest.param(max_utilitarian_maximal, id="max-utilitarian"),
]


@pytest.mark.parametrize("entry", GUARDED)
@pytest.mark.parametrize(
    "guard,error,text",
    [
        ({}, SizeGuardError, "enumeration over 17 chores exceeds the guard 16"),
        ({"guard": True}, InputError, "guard must be an integer, got True"),
        ({"guard": 2.5}, InputError, "guard must be an integer, got 2.5"),
        ({"guard": "16"}, InputError, "guard must be an integer, got '16'"),
    ],
    ids=["default", "bool", "float", "str"],
)
def test_every_entry_checks_its_guard_in_the_search(entry, guard, error, text):
    # One check in _search serves every entry: an int at least the chore
    # count.  Unchecked, True read as 1 and 2.5 compared as a number.
    inst = path_instance([[-1] * 17] * 2)
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        entry(inst, **guard)


class TestSearch:
    def test_running_utilities_match_a_rebuild_at_every_leaf(self):
        rng = random.Random(5)
        instances = list(family_instances()) + [Instance(2, (), AdditiveValuations([[], []]))]
        for _ in range(100):
            n = rng.randint(1, 4)
            make = rng.choice([random_interval_instance, random_path_instance])
            instances.append(make(rng, n, rng.randint(1, 8 if n <= 2 else 6)))
        for inst in instances:
            leaves = [(tuple(a), tuple(u)) for a, u in _search(inst, 16)]
            assert [Schedule(inst.n, a) for a, _ in leaves] == list(enumerate_maximal(inst))
            for assignment, utilities in leaves:
                assert utilities == _utilities(Schedule(inst.n, assignment).bundles(), inst)

    def test_complete_search_yields_exactly_the_complete_leaves(self):
        for inst in exists_corpus(random.Random(23)):
            leaves = [(tuple(a), tuple(u)) for a, u in _search(inst, 16)]
            complete = [(tuple(a), tuple(u)) for a, u in _search(inst, 16, complete=True)]
            assert complete == [(a, u) for a, u in leaves if None not in a]

    def test_monotone_profile_is_valued_at_each_leaf(self):
        inst = monotone_twin(random_interval_instance(random.Random(2), 3, 7), worst_chore_times_count)
        for assignment, utilities in _valued(inst, 16):
            assert utilities == _utilities(Schedule(3, tuple(assignment)).bundles(), inst)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_frontier_matches_pairwise_dominance(self, n):
        # Coordinates from a small range: many vectors share coordinates.
        rng = random.Random(n)
        for _ in range(200):
            vectors = {
                tuple(rng.randint(-4, 0) for _ in range(n)) for _ in range(rng.randint(1, 60))
            }
            expected = {v for v in vectors if not any(_dominated_by(w, v) for w in vectors)}
            assert _frontier(vectors) == expected

    def test_frontier_of_a_full_grid_is_its_top(self):
        grid = set(itertools.product(range(-3, 1), repeat=3))
        assert _frontier(grid) == {(0, 0, 0)}

    def test_frontier_of_an_antichain_is_everything(self):
        plane = {v for v in itertools.product(range(-6, 1), repeat=3) if sum(v) == -6}
        assert _frontier(plane) == plane

    def test_pareto_check_and_utilitarian_optimum_match_references(self):
        # Pareto optimality against every maximal schedule, and the first
        # schedule of largest total, both valued from the schedule alone.
        rng = random.Random(17)
        instances = [random_interval_instance(rng, rng.randint(1, 3), rng.randint(1, 7)) for _ in range(60)]
        instances += [monotone_twin(inst, additive_minus_squared_count) for inst in instances[:20]]
        for inst in instances:
            schedules = list(enumerate_maximal(inst))
            utilities = [_utilities(s.bundles(), inst) for s in schedules]
            totals = [sum(u) for u in utilities]
            assert max_utilitarian_maximal(inst) == schedules[totals.index(max(totals))]
            for k in rng.sample(range(len(schedules)), min(len(schedules), 8)):
                expected = not any(_dominated_by(theirs, utilities[k]) for theirs in utilities)
                assert is_pareto_optimal(schedules[k], inst) == expected


class TestDemoRoundRobin:
    def test_published_run(self):
        inst = path_instance([[0, -7, -2, -1, -3, -8, -9, -10]] * 2)
        schedule, verdict = demo_round_robin(inst)
        assert schedule.bundle(0) == {0, 2, 4, 6}
        assert schedule.bundle(1) == {3, 1, 5, 7}
        assert not verdict.holds
        assert [v[:2] for v in verdict.violations] == [(1, 0)]

    def test_edgeless_holds_ef1(self):
        chores = tuple(Chore(id=i, start=3 * i, finish=3 * i + 1) for i in range(6))
        inst = Instance(2, chores, AdditiveValuations([[-5, -4, -3, -2, -1, 0]] * 2))
        _, verdict = demo_round_robin(inst)
        assert verdict.holds

    def test_single_chore(self):
        inst = path_instance([[-1]] * 2)
        schedule, verdict = demo_round_robin(inst)
        assert schedule.bundle(0) == {0}
        assert verdict.holds

    def test_custom_order(self):
        inst = path_instance([[-1, -2]] * 2)
        schedule, _ = demo_round_robin(inst, agent_order=(1, 0))
        assert schedule.bundle(1) == {0}

    @pytest.mark.parametrize("order", [(0,), (0, 0), (1, 2)])
    def test_order_must_be_a_permutation_of_all_agents(self, order):
        inst = path_instance([[-1, -2]] * 2)
        with pytest.raises(InputError, match="^agent_order must be a permutation of all agents$"):
            demo_round_robin(inst, agent_order=order)

    def test_needs_an_additive_profile(self):
        chores = path_instance([[-1, -2]] * 2).chores
        inst = Instance(2, chores, MonotoneValuations(2, 2, lambda i, b: -len(b)))
        with pytest.raises(InputError, match="^round robin demo needs an additive profile$"):
            demo_round_robin(inst)


class TestDemoTopTradingEnvyCycle:
    def test_published_run(self):
        inst = path_instance([[-10, -1, -10, -3, -2]] * 2)
        schedule, verdict = demo_top_trading_envy_cycle(inst)
        assert schedule.bundle(0) == {1, 3}
        assert schedule.bundle(1) == {0, 2, 4}
        assert not verdict.holds
        assert [v[:2] for v in verdict.violations] == [(1, 0)]

    def test_edgeless_identical_holds(self):
        chores = tuple(Chore(id=i, start=3 * i, finish=3 * i + 1) for i in range(5))
        inst = Instance(2, chores, AdditiveValuations([[-5, -4, -3, -2, -1]] * 2))
        _, verdict = demo_top_trading_envy_cycle(inst)
        assert verdict.holds

    def test_single_chore(self):
        inst = path_instance([[-7]] * 2)
        schedule, verdict = demo_top_trading_envy_cycle(inst)
        assert verdict.holds

    def test_non_identical_rejected(self):
        inst = path_instance([[-1, -2], [-2, -1]])
        with pytest.raises(InputError):
            demo_top_trading_envy_cycle(inst)


class TestSingleAgent:
    def test_enumerate_and_checks(self):
        inst = path_instance([[-1, -2, -3]])
        found = list(enumerate_maximal(inst))
        # the lone agent takes a maximal independent set of the path
        assert found
        for schedule in found:
            assert is_maximal(schedule, inst.graph())
            assert check_ef1(schedule, inst).holds  # no pairs: vacuous

    def test_exists_trivially(self):
        inst = path_instance([[-1, -2]])
        assert exists(ExistenceQuery(instance=inst, criterion="ef")) is not None


class TestMaxUtilitarianMaximal:
    def test_identical_values_minimum_total_burden(self):
        inst = path_instance([[-2, -10, -1, -10, -2]] * 2)
        best = max_utilitarian_maximal(inst)
        total = sum(inst.value(i, best.bundle(i)) for i in range(2))
        assert total == -5  # ends plus middle; both heavy chores stay out
        assert best.unassigned() == {1, 3}

    def test_result_is_pareto_optimal(self):
        rng = random.Random(29)
        for _ in range(100):
            inst = random_interval_instance(rng, 2, rng.randint(1, 8))
            best = max_utilitarian_maximal(inst)
            assert is_pareto_optimal(best, inst)
