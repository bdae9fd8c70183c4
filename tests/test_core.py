"""Core data model: conflict graphs, schedules, orderings."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choresched.core import (
    AdditiveValuations,
    Chore,
    InputError,
    Instance,
    MonotoneValuations,
    Schedule,
    build_conflict_graph,
    is_feasible,
    order_by_finish,
    path_component_order,
    path_instance,
)


def chores_from_intervals(intervals):
    return tuple(Chore(id=i, start=s, finish=f) for i, (s, f) in enumerate(intervals))


class TestBuildConflictGraph:
    def test_star_from_nested_intervals(self):
        # one long chore over three consecutive short ones
        graph = build_conflict_graph(
            chores_from_intervals([(0, 3), (0, 1), (1, 2), (2, 3)])
        )
        assert graph.edges == frozenset({(0, 1), (0, 2), (0, 3)})
        assert not graph.is_path

    def test_single_chore_has_no_edges(self):
        graph = build_conflict_graph(chores_from_intervals([(0, 5)]))
        assert graph.edges == frozenset()
        assert graph.is_path

    def test_staggered_intervals_form_a_path(self):
        # pairwise interval-intersection check by hand: only consecutive overlap
        graph = build_conflict_graph(
            chores_from_intervals([(0, 2), (1, 3), (2, 4), (3, 5)])
        )
        assert graph.edges == frozenset({(0, 1), (1, 2), (2, 3)})
        assert graph.is_path

    def test_touching_endpoints_do_not_conflict(self):
        graph = build_conflict_graph(chores_from_intervals([(0, 2), (2, 4)]))
        assert graph.edges == frozenset()

    def test_empty_list_yields_empty_graph(self):
        graph = build_conflict_graph(())
        assert graph.m == 0
        assert graph.is_path

    def test_disconnected_pair_is_not_a_path(self):
        graph = build_conflict_graph(chores_from_intervals([(0, 1), (5, 6)]))
        assert not graph.is_path
        assert graph.components() == [[0], [1]]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(1, 6)), min_size=0, max_size=10
        )
    )
    def test_edges_match_timeline_simulation(self, raw):
        # Independent derivation: two chores conflict iff they share a time slot.
        chores = chores_from_intervals([(s, s + d) for s, d in raw])
        graph = build_conflict_graph(chores)
        simulated = set()
        for t in range(0, 30):
            active = [c.id for c in chores if c.start <= t < c.finish]
            for i in active:
                for j in active:
                    if i < j:
                        simulated.add((i, j))
        assert graph.edges == frozenset(simulated)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 8), st.integers(1, 8)), min_size=0, max_size=12
        )
    )
    @example([])
    @example([(3, 2)])
    @example([(0, 2), (2, 2), (4, 1)])  # touching endpoints
    @example([(1, 3), (1, 3), (1, 3)])  # identical intervals
    @example([(0, 9), (2, 1), (4, 4), (5, 1)])  # nested intervals
    def test_masks_match_pairwise_overlaps(self, raw):
        # Reference: the pairwise test the prefix-mask build replaced.
        chores = chores_from_intervals([(s, s + d) for s, d in raw])
        expected = [
            sum(1 << j for j, other in enumerate(chores) if j != i and c.overlaps(other))
            for i, c in enumerate(chores)
        ]
        assert list(build_conflict_graph(chores).neighbor_masks) == expected


class TestPathInstance:
    def test_known_counterexample_shape(self):
        inst = path_instance([[-1, -1, -1, -4]] * 2)
        graph = inst.graph()
        assert graph.is_path
        assert graph.edges == frozenset({(0, 1), (1, 2), (2, 3)})

    def test_single_chore(self):
        inst = path_instance([[-3]])
        assert inst.m == 1
        assert inst.graph().edges == frozenset()

    def test_five_chore_values_copied(self):
        inst = path_instance([[-2, -10, -1, -10, -2]] * 2)
        assert inst.valuations.chore_value(1, 3) == -10
        assert inst.graph().is_path

    def test_ragged_rows_rejected(self):
        with pytest.raises(InputError):
            path_instance([[-1, -2], [-1]])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 3))
    def test_always_a_path(self, m, n):
        inst = path_instance([[-1] * m] * n)
        assert inst.graph().is_path


class TestOrderByFinish:
    def test_ties_broken_by_id(self):
        chores = tuple(
            Chore(id=i, start=0, finish=f) for i, f in enumerate((3, 1, 2, 3))
        )
        assert order_by_finish(chores) == (1, 2, 0, 3)

    def test_sorted_input_is_identity(self):
        chores = chores_from_intervals([(0, 1), (0, 2), (0, 3)])
        assert order_by_finish(chores) == (0, 1, 2)

    def test_all_equal_finishes_identity(self):
        chores = tuple(Chore(id=i, start=0, finish=5) for i in range(4))
        assert order_by_finish(chores) == (0, 1, 2, 3)

    def test_deterministic_permutation(self):
        rng = random.Random(3)
        for _ in range(50):
            m = rng.randint(1, 10)
            chores = tuple(
                Chore(id=i, start=(s := rng.randint(0, 10)), finish=s + rng.randint(1, 5))
                for i in range(m)
            )
            order = order_by_finish(chores)
            assert sorted(order) == list(range(m))
            assert order == order_by_finish(chores)


class TestIsFeasible:
    def test_star_split(self):
        graph = build_conflict_graph(
            chores_from_intervals([(0, 3), (0, 1), (1, 2), (2, 3)])
        )
        schedule = Schedule.from_bundles(2, 4, [{0}, {1, 2, 3}])
        assert is_feasible(schedule, graph)

    def test_adjacent_pair_in_one_bundle(self):
        inst = path_instance([[-1, -1]] * 2)
        schedule = Schedule.from_bundles(2, 2, [{0, 1}, set()])
        assert not is_feasible(schedule, inst.graph())

    def test_empty_schedule(self):
        inst = path_instance([[-1, -1, -1]] * 2)
        assert is_feasible(Schedule.empty(2, 3), inst.graph())

    def test_size_mismatch_rejected(self):
        inst = path_instance([[-1, -1]] * 2)
        with pytest.raises(InputError):
            is_feasible(Schedule.empty(2, 3), inst.graph())


class TestSchedule:
    def test_unknown_agent_rejected(self):
        with pytest.raises(InputError):
            Schedule(2, (0, 5))

    def test_duplicate_chore_rejected(self):
        with pytest.raises(InputError):
            Schedule.from_bundles(2, 3, [{0, 1}, {1}])

    def test_swap_agents(self):
        schedule = Schedule(2, (0, None, 1))
        swapped = schedule.swap_agents()
        assert swapped.assignment == (1, None, 0)
        assert swapped.bundle(0) == schedule.bundle(1)

    def test_bundles_partition_assigned(self):
        schedule = Schedule(3, (0, 2, None, 0))
        assert schedule.bundles() == (frozenset({0, 3}), frozenset(), frozenset({1}))
        assert schedule.assigned() == frozenset({0, 1, 3})
        assert schedule.unassigned() == frozenset({2})


class TestChore:
    def test_zero_length_rejected(self):
        with pytest.raises(InputError):
            Chore(id=0, start=2, finish=2)

    def test_negative_start_rejected(self):
        with pytest.raises(InputError):
            Chore(id=0, start=-1, finish=2)


class TestValuations:
    def test_positive_value_rejected(self):
        with pytest.raises(InputError):
            AdditiveValuations([[0, 1]])

    def test_identical_and_dichotomy_detection(self):
        vals = AdditiveValuations([[-5, -1, -5], [-5, -1, -5]])
        assert vals.is_identical()
        assert vals.dichotomy() == (-5, -1)
        assert AdditiveValuations([[-1, -2, -3]]).dichotomy() is None
        assert AdditiveValuations([[-1, -1]]).dichotomy() is None

    def test_monotone_empty_bundle_must_be_zero(self):
        with pytest.raises(InputError):
            MonotoneValuations(1, 2, lambda i, b: -1)

    def test_monotone_value(self):
        vals = MonotoneValuations(2, 3, lambda i, b: -len(b) ** 2)
        assert vals.value(0, {0, 2}) == -4

    def test_monotone_spot_check(self):
        # nested feasible bundles never improve when they grow
        vals = MonotoneValuations(1, 6, lambda i, b: -len(b) ** 2)
        rng = random.Random(0)
        for _ in range(200):
            big = {c for c in range(6) if rng.random() < 0.5}
            small = {c for c in big if rng.random() < 0.5}
            assert vals.value(0, small) >= vals.value(0, big)


class TestInstanceValidation:
    def test_profile_agent_mismatch(self):
        with pytest.raises(InputError):
            Instance(3, chores_from_intervals([(0, 1)]), AdditiveValuations([[-1]] * 2))

    def test_profile_chore_mismatch(self):
        with pytest.raises(InputError):
            Instance(1, chores_from_intervals([(0, 1), (2, 3)]), AdditiveValuations([[-1]]))

    def test_sparse_ids_rejected(self):
        chores = (Chore(id=0, start=0, finish=1), Chore(id=2, start=2, finish=3))
        with pytest.raises(InputError):
            Instance(1, chores, AdditiveValuations([[-1, -1]]))


class TestPathComponentOrder:
    def test_walks_from_left_endpoint(self):
        inst = path_instance([[-1] * 5])
        order = path_component_order(inst.graph(), inst.chores, [0, 1, 2, 3, 4])
        assert order == [0, 1, 2, 3, 4]

    def test_interval_path_with_odd_finish_order(self):
        # finish order (0, 2, 1) differs from path order (0, 1, 2) here
        chores = chores_from_intervals([(0, 2), (1, 6), (3, 5)])
        graph = build_conflict_graph(chores)
        assert graph.is_path
        assert path_component_order(graph, chores, [0, 1, 2]) == [0, 1, 2]

    def test_non_path_rejected(self):
        chores = chores_from_intervals([(0, 3), (0, 1), (1, 2), (2, 3)])
        graph = build_conflict_graph(chores)
        with pytest.raises(InputError):
            path_component_order(graph, chores, [0, 1, 2, 3])
