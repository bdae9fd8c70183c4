"""Core data model: conflict graphs, schedules, orderings."""

import dataclasses
import random
from typing import Optional

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


def _nested(rng, m, k):
    """Each chore lies inside an earlier one (k unused)."""
    intervals = [(0, 1 << 20)]
    while len(intervals) < m:
        s, f = rng.choice(intervals)
        if f - s >= 2:
            a = rng.randrange(s, f - 1)
            intervals.append((a, rng.randint(a + 1, f)))
    return intervals


def _touching_chains(rng, m, k):
    """k chains over one span, each chore finishing where the next starts."""
    intervals = []
    for chain in range(k):
        t = 0
        for _ in range(m // k + (chain < m % k)):
            d = rng.randint(1, 6)
            intervals.append((t, t + d))
            t += d
    rng.shuffle(intervals)
    return intervals


def _disjoint_paths(rng, m, k):
    """k staggered paths, each after the last (touching at most), shuffled."""
    intervals, base = [], 0
    for path in range(k):
        starts = [base]
        for _ in range(m // k + (path < m % k) + 1):
            starts.append(starts[-1] + rng.randint(2, 6))
        # Chore j overlaps chore j + 1 only: s_{j+1} < f_j <= s_{j+2}.
        triples = zip(starts, starts[1:], starts[2:])
        intervals += [(a, rng.randint(b + 1, c)) for a, b, c in triples]
        base = intervals[-1][1] + rng.randint(0, 2)
    rng.shuffle(intervals)
    return intervals


def _caterpillar(rng, m, k):
    """A path of chores [10j, 10j + 13) with the other chores hung on its inner
    ones, at most two each in the gap their path neighbours leave: a tree
    with m - 1 edges that is not a path (k unused)."""
    spine = m // 2
    slots = [(j, half) for j in range(1, spine - 1) for half in (0, 1)]
    intervals = [(10 * j, 10 * j + 13) for j in range(spine)]
    pendants = rng.sample(slots, m - spine)
    intervals += [(10 * j + (3, 6)[h], 10 * j + (6, 10)[h]) for j, h in pendants]
    rng.shuffle(intervals)
    return intervals


# Interval families for the graph build: (rng, m, k) -> (start, finish) pairs
# in list order, k in 1..3 counting chains or paths where a family has them.
GRAPH_FAMILIES = {
    "nested": _nested,
    "identical": lambda rng, m, k: [(3, 3 + k)] * m,
    "equal starts": lambda rng, m, k: [(5, 5 + rng.randint(1, m)) for _ in range(m)],
    "equal finishes": lambda rng, m, k: [(rng.randrange(10 * m), 10 * m) for _ in range(m)],
    "touching chains": _touching_chains,
    "one clique": lambda rng, m, k: [
        (rng.randint(0, 1000), rng.randint(1001, 2000)) for _ in range(m)
    ],
    "disjoint paths": _disjoint_paths,
    # The same paths, under chore ids drawn apart from the list positions.
    "ids off position": _disjoint_paths,
    "caterpillar": _caterpillar,
    # m - 1 edges, every degree at most 2, and two components.
    "triangle beside a path": lambda rng, m, k: [(0, 3), (1, 4), (2, 5)]
    + [(s + 5, f + 5) for s, f in _disjoint_paths(rng, m - 3, 1)],
}


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
        # Reference: the pairwise overlap test, which the sweep replaces.
        chores = chores_from_intervals([(s, s + d) for s, d in raw])
        expected = [
            sum(1 << j for j, other in enumerate(chores) if j != i and c.overlaps(other))
            for i, c in enumerate(chores)
        ]
        assert list(build_conflict_graph(chores).neighbor_masks) == expected

    @pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
    def test_sweep_matches_pairwise_reference_on_families(self, family):
        # The masks are indexed by list position, so ids are never read.
        rng = random.Random(17)
        for k in (1, 2, 3):
            m = rng.randint(300, 500)
            intervals = GRAPH_FAMILIES[family](rng, m, k)
            ids = rng.sample(range(5 * m), m) if family == "ids off position" else range(m)
            chores = [Chore(id=c, start=s, finish=f) for c, (s, f) in zip(ids, intervals)]
            graph = build_conflict_graph(chores)
            expected = [
                sum(1 << j for j, other in enumerate(chores) if j != i and c.overlaps(other))
                for i, c in enumerate(chores)
            ]
            assert list(graph.neighbor_masks) == expected
            comps = reference_components(graph, range(m))
            path = len(comps) == 1 and reference_path_order(graph, comps[0], int) is not None
            assert graph.is_path == path
            if family in ("disjoint paths", "ids off position"):
                assert graph.is_path == (k == 1)

    @pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
    def test_with_isolated_matches_a_rebuild(self, family):
        # Appending chores that overlap nothing adds empty masks, and leaves a
        # path only when the graph had at most one vertex in all.
        rng = random.Random(23)
        for intervals in ([], [(0, 1)], list(GRAPH_FAMILIES[family](rng, 40, 1))):
            end = max((f for _, f in intervals), default=0)
            for count in (0, 1, 3):
                extra = [(end + 1 + 2 * i, end + 2 + 2 * i) for i in range(count)]
                graph = build_conflict_graph(chores_from_intervals(intervals))
                rebuilt = build_conflict_graph(chores_from_intervals(intervals + extra))
                assert graph.with_isolated(count) == rebuilt


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

    @pytest.mark.parametrize("agent", [-1, 3])
    def test_first_unknown_agent_named(self, agent):
        with pytest.raises(InputError, match=f"^chore 2 assigned to unknown agent {agent}$"):
            Schedule(3, (0, None, agent, 2, agent))

    @pytest.mark.parametrize("agent", [True, 1.0, False, 0.0])
    def test_bool_and_float_agents_rejected(self, agent):
        # They hash like 1 and 0, so a set test alone would let them through
        # and bundles() would then index a list with them.
        with pytest.raises(InputError, match=f"^chore 1 assigned to unknown agent {agent}$"):
            Schedule(2, (None, agent))

    def test_duplicate_chore_rejected(self):
        with pytest.raises(InputError):
            Schedule.from_bundles(2, 3, [{0, 1}, {1}])

    @pytest.mark.parametrize("chore", [True, 1.0, False, 0.0])
    def test_bool_and_float_chore_ids_rejected(self, chore):
        # True == 1 passes a range test and would be taken as chore 1; a
        # float would reach list indexing and raise TypeError.
        with pytest.raises(
            InputError, match=f"^bundle of agent 0 references unknown chore {chore}$"
        ):
            Schedule.from_bundles(2, 2, [{chore}, set()])

    def test_negative_chore_count_rejected(self):
        with pytest.raises(InputError, match="^chore count must be non-negative, got -1$"):
            Schedule.from_bundles(2, -1, [set(), set()])

    @pytest.mark.parametrize("make", [list, lambda a: (x for x in a)], ids=["list", "generator"])
    def test_assignment_stored_as_tuple(self, make):
        schedule = Schedule(2, make((0, None, 1)))
        assert schedule.assignment == (0, None, 1)
        assert schedule == Schedule(2, (0, None, 1))
        assert hash(schedule) == hash(Schedule(2, (0, None, 1)))

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


class _Label(str):
    pass


# Ints, bools, floats, strings and None for any Chore field.
_FIELD_VALUES = st.one_of(
    st.integers(-3, 6), st.integers(), st.booleans(), st.floats(), st.text(max_size=3), st.none()
)


@dataclasses.dataclass(frozen=True)
class _ReferenceChore:
    """The checks Chore made in a __post_init__, in the same order."""

    id: int
    start: int
    finish: int
    label: Optional[str] = None

    def __post_init__(self) -> None:
        for name in ("id", "start", "finish"):
            if type(getattr(self, name)) is not int:
                raise InputError(f"chore {self.id}: {name} must be an integer")
        if self.label is not None and not isinstance(self.label, str):
            raise InputError(f"chore {self.id}: label must be a string or None")
        if self.start < 0:
            raise InputError(f"chore {self.id}: start must be non-negative")
        if self.finish <= self.start:
            raise InputError(f"chore {self.id}: finish must be greater than start")


class TestChore:
    def test_zero_length_rejected(self):
        with pytest.raises(InputError):
            Chore(id=0, start=2, finish=2)

    def test_negative_start_rejected(self):
        with pytest.raises(InputError):
            Chore(id=0, start=-1, finish=2)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"id": 1.0, "start": 0, "finish": 2}, "chore 1.0: id must be an integer"),
            ({"id": 1, "start": False, "finish": 2}, "chore 1: start must be an integer"),
            ({"id": 1, "start": 0, "finish": 2.5}, "chore 1: finish must be an integer"),
            ({"id": 1, "start": 0, "finish": 2, "label": 5}, "chore 1: label must be a string"),
        ],
    )
    def test_field_types_checked(self, fields, message):
        with pytest.raises(InputError, match=f"^{message}"):
            Chore(**fields)

    def test_still_a_frozen_dataclass(self):
        chore = Chore(3, 1, 4, "mop")
        assert repr(chore) == "Chore(id=3, start=1, finish=4, label='mop')"
        assert chore == Chore(id=3, start=1, finish=4, label="mop") != Chore(3, 1, 4)
        assert hash(chore) == hash(Chore(3, 1, 4, "mop"))
        assert dataclasses.replace(chore, label=None) == Chore(3, 1, 4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            chore.start = 0

    @settings(max_examples=1500, deadline=None)
    @given(st.lists(_FIELD_VALUES, min_size=3, max_size=4))
    @example([0, 0, 1, _Label("subclass")])
    @example([True, 0, 1])
    def test_accepts_and_rejects_as_the_checks_in_order(self, fields):
        try:
            expected = _ReferenceChore(*fields)
        except InputError as exc:
            with pytest.raises(InputError) as raised:
                Chore(*fields)
            assert str(raised.value) == str(exc)
        else:
            chore = Chore(*fields)
            assert dataclasses.astuple(chore) == dataclasses.astuple(expected)
            assert [type(v) for v in dataclasses.astuple(chore)] == [type(v) for v in fields] + [
                type(None)
            ] * (4 - len(fields))


class TestValuations:
    def test_one_row_object_is_shared_as_passed(self):
        row = (-2, 0, -1)
        assert all(shared is row for shared in AdditiveValuations([row] * 5).table)
        with pytest.raises(InputError, match="^value for agent 0, chore 1 is positive"):
            AdditiveValuations([(-1, 1)] * 4)

    def test_positive_value_rejected(self):
        with pytest.raises(InputError):
            AdditiveValuations([[0, 1]])
        # Identical valid rows are checked once; the bad row is still named.
        with pytest.raises(InputError, match="^value for agent 3, chore 1 is positive"):
            AdditiveValuations([(-1, 0)] * 3 + [(-1, 1)])

    @pytest.mark.parametrize("bad", [False, 0.0], ids=["bool", "float"])
    def test_row_equal_to_a_valid_one_still_type_checked(self, bad):
        with pytest.raises(InputError, match="^value for agent 2, chore 1 is not an integer"):
            AdditiveValuations([[-1, 0], [-1, 0], [-1, bad]])

    def test_identical_and_dichotomy_detection(self):
        vals = AdditiveValuations([[-5, -1, -5], [-5, -1, -5]])
        assert vals.is_identical()
        assert vals.dichotomy() == (-5, -1)
        assert AdditiveValuations([[-1, -2, -3]]).dichotomy() is None
        assert AdditiveValuations([[-1, -1]]).dichotomy() is None

    def test_identical_and_dichotomy_match_a_full_value_scan(self):
        # Both read each distinct row object once; a scan of every value of
        # every row must agree, identical or not.
        rng = random.Random(35)
        for _ in range(2000):
            n, m = rng.randint(1, 5), rng.randint(1, 6)
            pool = [[rng.choice((-3, -1, 0)) for _ in range(m)] for _ in range(rng.randint(1, 3))]
            table = [list(rng.choice(pool)) for _ in range(n)]
            vals = AdditiveValuations(table)
            assert vals.is_identical() == all(row == table[0] for row in table)
            values = sorted({v for row in table for v in row})
            assert vals.dichotomy() == (tuple(values) if len(values) == 2 else None)

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
    @pytest.mark.parametrize("within", [[5], [-1], [0, 3]])
    def test_components_within_unknown_chores_rejected(self, within):
        graph = path_instance([[-1] * 3]).graph()
        with pytest.raises(InputError, match="^within holds chore ids outside 0..2$"):
            graph.components(within=within)

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
    @example([(0, 2), (0, 2), (0, 2), (5, 1)])  # triangle + isolated: m - 1 edges, disconnected
    @example([(0, 2), (2, 2)])  # two chores touching at one endpoint
    @example([(0, 3), (1, 3), (2, 3)])  # a triangle: connected, degrees 2, m edges
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
