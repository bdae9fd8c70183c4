"""Core data model: conflict graphs, schedules, orderings."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choresched.core import (
    AdditiveValuations,
    Chore,
    ConflictGraph,
    InputError,
    Instance,
    MonotoneValuations,
    Schedule,
    _path_order,
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

    def test_duplicate_id_named(self):
        chores = (Chore(id=0, start=0, finish=1), Chore(id=0, start=2, finish=3))
        with pytest.raises(InputError, match="chore id 0 appears more than once"):
            Instance(1, chores, AdditiveValuations([[-1, -1]]))

    def test_sparse_ids_rejected(self):
        chores = (Chore(id=0, start=0, finish=1), Chore(id=2, start=2, finish=3))
        with pytest.raises(InputError):
            Instance(1, chores, AdditiveValuations([[-1, -1]]))


def reference_components(graph, members):
    """Reference: components of the induced subgraph by a depth-first walk
    over neighbour sets."""
    members = set(members)
    seen = set()
    comps = []
    for root in sorted(members):
        if root in seen:
            continue
        comp, stack = [], [root]
        seen.add(root)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in graph.neighbors(v) & members:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def reference_path_order(graph, comp, key):
    """Reference: walk the path from the endpoint with the smaller key, each
    time to the one neighbour other than the chore just left; None if the
    chores do not induce a simple path."""
    comp = list(comp)
    if len(comp) == 1:
        return comp
    members = set(comp)
    ends = [c for c in comp if len(graph.neighbors(c) & members) == 1]
    if len(ends) != 2:
        return None
    order = [min(ends, key=key)]
    prev = None
    while len(order) < len(comp):
        nxt = [w for w in graph.neighbors(order[-1]) & members if w != prev]
        if len(nxt) != 1:
            return None
        prev = order[-1]
        order.append(nxt[0])
    return order


@st.composite
def graphs_with_subsets(draw):
    """Any undirected graph on up to 9 vertices, a vertex subset and a
    vertex ranking (an endpoint rule)."""
    m = draw(st.integers(0, 9))
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    within = draw(st.lists(st.integers(0, m - 1), unique=True)) if m else []
    ranking = draw(st.permutations(range(m)))
    return m, edges, within, list(ranking)


def graph_from_edges(m, edges):
    masks = [0] * m
    for i, j in edges:
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return ConflictGraph(m=m, neighbor_masks=tuple(masks), is_path=False)


class TestGraphWalks:
    @settings(max_examples=400, deadline=None)
    @given(graphs_with_subsets())
    @example((1, [], [0], [0]))  # singleton
    @example((4, [(0, 1), (1, 2), (2, 3)], [0, 1, 2, 3], [3, 2, 1, 0]))  # path, reversed rule
    @example((4, [(0, 1), (1, 2), (2, 3), (0, 2)], [0, 1, 2, 3], [0, 1, 2, 3]))  # chord
    @example((4, [(0, 1), (0, 2), (0, 3)], [0, 1, 2, 3], [0, 1, 2, 3]))  # degree-3 vertex
    @example((4, [(0, 1), (1, 2), (0, 2)], [0, 1, 2, 3], [0, 1, 2, 3]))  # triangle + singleton
    @example((5, [(0, 1), (1, 2), (3, 4)], [0, 2, 4, 1, 3], [4, 3, 2, 1, 0]))  # two paths
    def test_components_and_path_order_match_reference_walkers(self, case):
        m, edges, within, ranking = case
        graph = graph_from_edges(m, edges)
        assert graph.components() == reference_components(graph, range(m))
        comps = graph.components(within=within)
        assert comps == reference_components(graph, within)
        for key in (int, ranking.__getitem__):
            for members in comps + [within]:
                if members:
                    expected = reference_path_order(graph, members, key)
                    assert _path_order(graph.neighbor_masks, members, key) == expected

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 8), st.integers(1, 8)), min_size=0, max_size=10
        )
    )
    def test_timeline_endpoint_rule_and_is_path_match_reference(self, raw):
        chores = chores_from_intervals([(s, s + d) for s, d in raw])
        graph = build_conflict_graph(chores)
        comps = reference_components(graph, range(len(chores)))
        assert graph.is_path == (len(comps) <= 1 and all(
            reference_path_order(graph, comp, int) is not None for comp in comps
        ))

        def timeline(c):
            return chores[c].start, chores[c].finish, c

        for comp in comps:
            expected = reference_path_order(graph, comp, timeline)
            if expected is None:
                with pytest.raises(InputError):
                    path_component_order(graph, chores, comp)
            else:
                assert path_component_order(graph, chores, comp) == expected


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
