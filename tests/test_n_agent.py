"""Weighted round robin, bundle splits, and the bounded-component solver."""

import random

import pytest

from choresched import cli
from choresched.checkers import check_ef, check_ef1, is_complete, is_maximal
from choresched.core import (
    AdditiveValuations,
    Chore,
    InputError,
    Instance,
    InternalInvariantError,
    Schedule,
    build_conflict_graph,
    path_instance,
)
from choresched.generate import (
    random_bounded_components_instance,
    random_dichotomous_path_instance,
)
from choresched.n_agent import (
    dichotomous_path_solution,
    envy_graph,
    solve_identical_bounded_components,
    solve_identical_dichotomous_path,
    split_pair_bundle,
    split_triple_bundle,
)
from choresched.io import load_schedule, save_instance
from choresched.oracle import exists, ExistenceQuery
from conftest import component_prefixes, independent_additive_failures


def real_counts(schedule, heavy_ids):
    return [
        (
            sum(1 for c in b if c in heavy_ids),
            sum(1 for c in b if c not in heavy_ids),
        )
        for b in schedule.bundles()
    ]


class TestEnvyGraph:
    def test_equal_bundles_no_edges(self):
        inst = path_instance([[-2, -2]] * 2)
        schedule = Schedule.from_bundles(2, 2, [{0}, {1}])
        assert envy_graph(schedule, inst).edges == frozenset()

    def test_single_edge_from_worse_off(self):
        inst = path_instance([[-3, -1]] * 2)
        schedule = Schedule.from_bundles(2, 2, [{0}, {1}])
        graph = envy_graph(schedule, inst)
        assert graph.edges == frozenset({(0, 1)})
        assert graph.topological_order() == (0, 1)

    def test_identical_profiles_always_acyclic(self):
        from conftest import random_feasible_schedule

        rng = random.Random(5)
        for _ in range(300):
            m = rng.randint(1, 8)
            n = rng.randint(2, 4)
            row = [rng.randint(-9, 0) for _ in range(m)]
            inst = path_instance([row] * n)
            schedule = random_feasible_schedule(rng, inst)
            assert envy_graph(schedule, inst).is_acyclic()


class TestSplitPairBundle:
    def build(self, intervals, heavy, dummies=()):
        chores = tuple(Chore(id=i, start=s, finish=f) for i, (s, f) in enumerate(intervals))
        return build_conflict_graph(chores), set(heavy), frozenset(dummies)

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_chore_ids_outside_the_graph_rejected(self, bad):
        graph, heavy, dummies = self.build(
            [(0, 2), (1, 3), (10, 12), (11, 13)], heavy=[0, 2]
        )
        with pytest.raises(InputError, match=r"^within holds chore ids outside 0\.\.3$"):
            split_pair_bundle([0, 1, 2, bad], graph, heavy, dummies)

    def test_two_edges_split_across(self):
        # two H-L edges, no isolated chores
        graph, heavy, dummies = self.build(
            [(0, 2), (1, 3), (10, 12), (11, 13)], heavy=[0, 2]
        )
        a, b = split_pair_bundle([0, 1, 2, 3], graph, heavy, dummies)
        for side in (a, b):
            assert sum(1 for c in side if c in heavy) == 1
            assert sum(1 for c in side if c not in heavy) == 1
        assert {0, 1} not in (set(a), set(b))  # edge endpoints separated

    def test_four_isolated_chores(self):
        graph, heavy, dummies = self.build(
            [(0, 1), (3, 4), (6, 7), (9, 10)], heavy=[0, 1]
        )
        a, b = split_pair_bundle([0, 1, 2, 3], graph, heavy, dummies)
        for side in (a, b):
            assert sum(1 for c in side if c in heavy) == 1
            assert len(side) == 2

    def test_one_edge_plus_compensating_isolated(self):
        # odd edge count: the edge's heavy pairs with the isolated light
        graph, heavy, dummies = self.build(
            [(0, 2), (1, 3), (6, 7), (9, 10)], heavy=[0, 2]
        )
        a, b = split_pair_bundle([0, 1, 2, 3], graph, heavy, dummies)
        sides = {frozenset(a), frozenset(b)}
        assert sides == {frozenset({0, 3}), frozenset({1, 2})}

    def test_classifies_the_picked_chores_as_their_components(self):
        # Paths of 1-4 chores and triangles on a timeline, each block twice so
        # both kind counts are even, plus unpicked chores across the blocks;
        # ids are shuffled, so an edge's partner may have any id.
        rng = random.Random(23)
        larger = 0
        for _ in range(600):
            blocks = [
                rng.choice((1, 2, 3, 4, "triangle")) if rng.random() < 0.1 else rng.choice((1, 2))
                for _ in range(rng.randint(1, 6))
            ]
            kinds = []
            for block in blocks:
                size = 3 if block == "triangle" else block
                two = [True, False] if rng.random() < 0.5 else [False, True]
                kinds.append(two if size == 2 else [rng.random() < 0.5 for _ in range(size)])
            spans, heavy_at, t = [], [], 0
            for block, kind in zip(blocks * 2, kinds * 2):
                for j in range(len(kind)):
                    spans.append((t, t + 3) if block == "triangle" else (t + j, t + j + 2))
                heavy_at += kind
                t += len(kind) + 3
            picked_count = len(spans)
            for _ in range(rng.randint(0, 3)):
                start = rng.randrange(t)
                spans.append((start, start + rng.randint(1, 8)))
            ids = list(range(len(spans)))
            rng.shuffle(ids)
            intervals = [None] * len(spans)
            for position, c in enumerate(ids):
                intervals[c] = spans[position]
            graph = build_conflict_graph(
                tuple(Chore(id=c, start=s, finish=f) for c, (s, f) in enumerate(intervals))
            )
            picked = ids[:picked_count]
            heavy = {ids[p] for p in range(picked_count) if heavy_at[p]}
            comps = graph.components(within=picked)
            dummies = {comp[0] for comp in comps if len(comp) == 1 and rng.random() < 0.5}
            big = next((comp for comp in comps if len(comp) > 2), None)
            if big is not None:
                larger += 1
                message = f"^pair bundle induces a component of {len(big)} chores; expected edges and singletons$"
                with pytest.raises(InternalInvariantError, match=message):
                    split_pair_bundle(picked, graph, heavy, dummies)
                continue
            a, b = split_pair_bundle(picked, graph, heavy, dummies)
            assert a | b == set(picked) and not a & b
            for side in (a, b):
                assert all(not graph.neighbor_masks[c] >> d & 1 for c in side for d in side)
            assert len(a & heavy) == len(b & heavy) and len(a - heavy) == len(b - heavy)
        assert 50 < larger < 500

    def test_same_kind_edge_rejected(self):
        graph, heavy, dummies = self.build([(0, 2), (1, 3)], heavy=[0, 1])
        from choresched.core import InternalInvariantError

        with pytest.raises(InternalInvariantError):
            split_pair_bundle([0, 1], graph, heavy, dummies)

    def test_odd_counts_rejected(self):
        graph, heavy, dummies = self.build([(0, 1), (3, 4), (6, 7)], heavy=[0])
        from choresched.core import InternalInvariantError

        with pytest.raises(InternalInvariantError):
            split_pair_bundle([0, 1, 2], graph, heavy, dummies)


class TestSplitTripleBundle:
    def build(self, intervals, heavy, dummies=()):
        chores = tuple(Chore(id=i, start=s, finish=f) for i, (s, f) in enumerate(intervals))
        return build_conflict_graph(chores), set(heavy), frozenset(dummies)

    def test_three_chore_path_goes_to_three_agents(self):
        graph, heavy, dummies = self.build(
            [(0, 2), (1, 3), (2, 4)], heavy=[0, 2]
        )
        # pad with isolated chores so counts are multiples of three
        graph, heavy, dummies = self.build(
            [(0, 2), (1, 3), (2, 4), (10, 11), (13, 14), (16, 17)],
            heavy=[0, 2, 3],
            dummies=[3, 4, 5],
        )
        parts = split_triple_bundle(range(6), graph, heavy, dummies)
        assert {len(p & {0, 1, 2}) for p in parts} == {1}

    def test_four_chore_path_alternating(self):
        # H, L, H, L along the path: someone takes the two non-adjacent ends
        graph, heavy, dummies = self.build(
            [(0, 2), (1, 3), (2, 4), (3, 5), (10, 11), (13, 14)],
            heavy=[0, 2, 4],
            dummies=[4, 5],
        )
        parts = split_triple_bundle(range(6), graph, heavy, dummies)
        path_parts = [p & {0, 1, 2, 3} for p in parts]
        sizes = sorted(len(p) for p in path_parts)
        assert sizes == [1, 1, 2]
        double = next(p for p in path_parts if len(p) == 2)
        assert double in ({0, 3}, {0, 2}, {1, 3})  # non-adjacent positions
        for p, full in zip(path_parts, parts):
            assert sum(1 for c in full if c in heavy) == 1
            assert sum(1 for c in full if c not in heavy) == 1

    def test_isolated_only(self):
        graph, heavy, dummies = self.build(
            [(0, 1), (3, 4), (6, 7), (9, 10), (12, 13), (15, 16)],
            heavy=[0, 1, 2],
        )
        parts = split_triple_bundle(range(6), graph, heavy, dummies)
        for p in parts:
            assert sum(1 for c in p if c in heavy) == 1
            assert len(p) == 2

    def test_oversized_component_rejected(self):
        graph, heavy, dummies = self.build(
            [(0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (20, 21)], heavy=[0, 2, 4]
        )
        from choresched.core import InternalInvariantError

        with pytest.raises(InternalInvariantError):
            split_triple_bundle(range(6), graph, heavy, dummies)

    @pytest.mark.parametrize(
        "intervals",
        [
            [(0, 3), (1, 4), (2, 5)],
            [(0, 9), (0, 1), (3, 4), (6, 7), (20, 21), (23, 24)],
        ],
        ids=["triangle", "star"],
    )
    def test_non_path_component_rejected(self, intervals):
        # Heavy and light counts are multiples of three and no component has
        # more than four chores, so only the path test can reject.
        graph, heavy, dummies = self.build(intervals, heavy=[0, 1, 2])
        from choresched.core import InternalInvariantError

        with pytest.raises(InternalInvariantError, match="not a simple path"):
            split_triple_bundle(range(len(intervals)), graph, heavy, dummies)


class TestDichotomousPath:
    def test_eight_heavy_chores_two_each(self):
        inst = path_instance([[-5] * 8] * 4)
        schedule = solve_identical_dichotomous_path(inst, allow_uniform=True)
        assert is_complete(schedule)
        assert all(len(schedule.bundle(i)) == 2 for i in range(4))
        assert check_ef(schedule, inst).holds

    def test_empty_instance(self):
        inst = Instance(4, (), AdditiveValuations([[]] * 4))
        schedule = solve_identical_dichotomous_path(inst)
        assert schedule.m == 0
        assert is_complete(schedule)

    def test_distinct_rejections(self):
        with pytest.raises(InputError, match="four agents"):
            solve_identical_dichotomous_path(path_instance([[-1, -2]] * 3))
        chores = tuple(
            Chore(id=i, start=s, finish=f)
            for i, (s, f) in enumerate([(0, 3), (0, 1), (1, 2), (2, 3)])
        )
        star = Instance(4, chores, AdditiveValuations([[-1, -2, -1, -2]] * 4))
        with pytest.raises(InputError, match="path"):
            solve_identical_dichotomous_path(star)
        mixed = path_instance([[-1, -2], [-2, -1], [-1, -2], [-1, -2]])
        with pytest.raises(InputError, match="identical"):
            solve_identical_dichotomous_path(mixed)
        triple_valued = path_instance([[-1, -2, -3]] * 4)
        with pytest.raises(InputError, match="dichotomous"):
            solve_identical_dichotomous_path(triple_valued)
        uniform = path_instance([[-1, -1]] * 4)
        with pytest.raises(InputError, match="dichotomous"):
            solve_identical_dichotomous_path(uniform)
        assert is_complete(solve_identical_dichotomous_path(uniform, allow_uniform=True))

    def test_padded_run_is_envy_free_and_tagged(self):
        rng = random.Random(9)
        inst = random_dichotomous_path_instance(rng, 5, 11)
        sol = dichotomous_path_solution(inst)
        assert check_ef(sol.padded_schedule, sol.padded_instance).holds
        assert all(
            sol.padded_instance.chores[d].label == "dummy" for d in sol.dummy_ids
        )
        # exactly one triple, holding 1.5x the pair counts of each kind
        triples = [s for s in sol.meta_agents if s.is_triple]
        assert len(triples) == 1
        heavy = {
            c
            for c in range(sol.padded_instance.m)
            if sol.padded_instance.valuations.chore_value(0, c) == sol.heavy_value
        }
        per_meta = {
            s.index: sum(1 for c in s.picks if c in heavy) for s in sol.meta_agents
        }
        pair_h = {per_meta[s.index] for s in sol.meta_agents if not s.is_triple}
        assert len(pair_h) == 1
        assert per_meta[triples[0].index] * 2 == 3 * pair_h.pop()

    def test_derived_padded_graph_matches_a_rebuild(self):
        # The solver derives the padded graph as the real one with an
        # isolated vertex per dummy, rather than sweeping the padded timeline.
        dummies = 0
        for n in (4, 5, 6, 7, 50):
            rng = random.Random(3000 + n)
            for _ in range(60):
                inst = random_dichotomous_path_instance(rng, n, rng.randint(2, 40))
                sol = dichotomous_path_solution(inst)
                assert sol.dummy_ids == frozenset(range(inst.m, sol.padded_instance.m))
                derived = inst.graph().with_isolated(len(sol.dummy_ids))
                rebuilt = build_conflict_graph(sol.padded_instance.chores)
                assert derived.neighbor_masks == rebuilt.neighbor_masks
                assert derived.is_path == rebuilt.is_path
                assert derived.m == rebuilt.m == sol.padded_instance.m
                dummies += len(sol.dummy_ids)
        assert dummies > 0

    def test_every_heavy_light_pattern_up_to_ten_chores(self):
        # exhaustive over chore-type patterns: every way of labeling a path
        # of 2..10 chores heavy/light, for an even and an odd agent count
        import itertools

        for n in (4, 5):
            for m in range(2, 11):
                for bits in itertools.product((0, 1), repeat=m):
                    if len(set(bits)) == 1:
                        continue  # needs both values to be dichotomous
                    row = [-7 if b else -2 for b in bits]
                    inst = path_instance([row] * n)
                    sol = dichotomous_path_solution(inst)
                    assert is_complete(sol.schedule)
                    assert check_ef1(sol.schedule, inst).holds
                    assert check_ef(sol.padded_schedule, sol.padded_instance).holds

    def test_random_instances_ef1_complete_balanced(self):
        for n in (4, 5, 6, 7, 8):
            rng = random.Random(1000 + n)
            for _ in range(300):
                inst = random_dichotomous_path_instance(rng, n, rng.randint(2, 14))
                sol = dichotomous_path_solution(inst)
                assert is_complete(sol.schedule)
                assert is_maximal(sol.schedule, inst.graph())
                assert check_ef1(sol.schedule, inst).holds
                heavy = {
                    c
                    for c in range(inst.m)
                    if inst.valuations.chore_value(0, c) == sol.heavy_value
                }
                counts = real_counts(sol.schedule, heavy)
                for kind in (0, 1):
                    spread = max(c[kind] for c in counts) - min(c[kind] for c in counts)
                    assert spread <= 1


class TestBoundedComponents:
    def test_edgeless_round_robin(self):
        inst = Instance(
            3,
            tuple(Chore(id=i, start=3 * i, finish=3 * i + 1) for i in range(7)),
            AdditiveValuations([[-4, -1, -3, -2, -5, -1, -2]] * 3),
        )
        schedule = solve_identical_bounded_components(inst)
        assert is_complete(schedule)
        assert check_ef1(schedule, inst).holds

    def test_two_agents_matches_oracle_verdicts(self):
        rng = random.Random(15)
        for _ in range(200):
            inst = random_bounded_components_instance(rng, 2, rng.randint(1, 8))
            schedule = solve_identical_bounded_components(inst)
            assert check_ef1(schedule, inst).holds
            assert is_maximal(schedule, inst.graph())
            witness = exists(ExistenceQuery(instance=inst, criterion="ef1"))
            assert witness is not None

    def test_random_instances_with_intermediate_acyclicity(self):
        for n in (2, 3, 4):
            rng = random.Random(2000 + n)
            for _ in range(300):
                inst = random_bounded_components_instance(rng, n, rng.randint(1, 12))
                schedule = solve_identical_bounded_components(inst)
                assert check_ef1(schedule, inst).holds
                assert is_maximal(schedule, inst.graph())
                for partial in component_prefixes(schedule, inst.graph()):
                    assert envy_graph(partial, inst).is_acyclic()

    def test_picks_as_each_agent_taking_its_most_disliked_chore(self):
        # The solver sorts each component once; under identical values that is
        # the order in which each agent's own min over the rest picks.
        def reference(inst):
            n, value = inst.n, inst.valuations.chore_value
            assignment, burdens = [None] * inst.m, [0] * n
            for comp in inst.graph().components():
                remaining = set(comp)
                for agent in sorted(range(n), key=burdens.__getitem__, reverse=True):
                    if remaining:
                        pick = min(remaining, key=lambda c: (value(agent, c), c))
                        assignment[pick] = agent
                        burdens[agent] += value(agent, pick)
                        remaining.discard(pick)
            return tuple(assignment)

        for n in (2, 3, 5, 8):
            rng = random.Random(4000 + n)
            for _ in range(150):
                inst = random_bounded_components_instance(rng, n, rng.randint(1, 30), vmin=-3)
                assert solve_identical_bounded_components(inst).assignment == reference(inst)

    def test_oversized_component_rejected(self):
        inst = path_instance([[-1, -1, -1, -1]] * 3)  # one component of 4 > n = 3
        with pytest.raises(InputError, match="component"):
            solve_identical_bounded_components(inst)

    def test_non_identical_rejected(self):
        inst = Instance(
            2,
            tuple(Chore(id=i, start=3 * i, finish=3 * i + 1) for i in range(2)),
            AdditiveValuations([[-1, -2], [-2, -1]]),
        )
        with pytest.raises(InputError, match="identical"):
            solve_identical_bounded_components(inst)


class TestLargeInstancesIndependently:
    """Both n-agent solvers at m = 2000, and the CLI's dichotomous-path solve at
    m = 10,000, judged by a check that shares no code with them."""

    @pytest.mark.parametrize("n", [5, 6, 50])
    @pytest.mark.parametrize(
        "generate, solve",
        [
            (random_bounded_components_instance, solve_identical_bounded_components),
            (random_dichotomous_path_instance, solve_identical_dichotomous_path),
        ],
        ids=["bounded-components", "dichotomous-path"],
    )
    def test_complete_conflict_free_ef1(self, generate, solve, n):
        inst = generate(random.Random(1000 + n), n, 2000)
        assert independent_additive_failures(inst, solve(inst)) == []

    def test_cli_splits_a_large_triple_bundle(self, tmp_path):
        # At n = 5 the triple meta agent picks 3/5 of the 10,000 chores, with
        # over a thousand path components in its bundle: the split walks them
        # in one loop, where a recursion per component overflowed the stack.
        inst = random_dichotomous_path_instance(random.Random(1), 5, 10_000)
        path, out = tmp_path / "instance.json", tmp_path / "schedule.json"
        save_instance(inst, path)
        assert cli.main(["solve", str(path), "--out", str(out)]) == 0
        assert independent_additive_failures(inst, load_schedule(out, inst)) == []

    def test_check_finds_an_overlap_planted_in_a_large_bundle(self):
        # 2,000 disjoint chores in one bundle, but chore 5 is moved into
        # chore 1500's slot: one sweep names that one pair.
        spans = [(3 * i, 3 * i + 2) for i in range(2000)]
        spans[5] = (4500, 4501)
        inst = Instance(
            2,
            tuple(Chore(id=i, start=s, finish=f) for i, (s, f) in enumerate(spans)),
            AdditiveValuations([[0] * 2000] * 2),
        )
        assert independent_additive_failures(inst, Schedule(2, (0,) * 2000)) == [
            "agent 0 holds overlapping chores 5 and 1500"
        ]
        assert independent_additive_failures(inst, Schedule(2, (0,) * 5 + (1,) + (0,) * 1994)) == []

    def test_check_catches_each_fault(self):
        inst = Instance(
            2,
            (
                Chore(id=0, start=0, finish=2),
                Chore(id=1, start=1, finish=3),
                Chore(id=2, start=5, finish=6),
            ),
            AdditiveValuations([[-1, -1, -1]] * 2),
        )
        assert independent_additive_failures(inst, Schedule(2, (0, 1, 0))) == []
        assert independent_additive_failures(inst, Schedule(2, (0, 1, None))) == [
            "chore 2 unassigned"
        ]
        assert independent_additive_failures(inst, Schedule(2, (0, 0, 1))) == [
            "agent 0 holds overlapping chores 0 and 1"
        ]
        envious = Instance(
            2,
            tuple(Chore(id=i, start=3 * i, finish=3 * i + 1) for i in range(3)),
            AdditiveValuations([[-1, -1, -1]] * 2),
        )
        assert independent_additive_failures(envious, Schedule(2, (0, 0, 0))) == [
            "agent 0 envies agent 1 beyond one chore"
        ]
        # Chore 1 overlaps chores 0 and 2, which do not overlap each other.
        chain = Instance(
            2,
            (
                Chore(id=0, start=0, finish=2),
                Chore(id=1, start=1, finish=4),
                Chore(id=2, start=3, finish=5),
            ),
            AdditiveValuations([[-1, -1, -1]] * 2),
        )
        maximal = Schedule(2, (0, None, 1))
        assert independent_additive_failures(chain, maximal, complete=False) == []
        assert independent_additive_failures(chain, maximal) == ["chore 1 unassigned"]
        assert independent_additive_failures(chain, Schedule(2, (0, None, None)), complete=False) == [
            "chore 2 unassigned but fits agent 0's bundle",
            "chore 1 unassigned but fits agent 1's bundle",
            "chore 2 unassigned but fits agent 1's bundle",
        ]
        # A chore that finishes as a member starts, or starts as one finishes, fits.
        touching = Instance(
            2,
            (
                Chore(id=0, start=2, finish=4),
                Chore(id=1, start=0, finish=2),
                Chore(id=2, start=4, finish=6),
            ),
            AdditiveValuations([[0, 0, 0]] * 2),
        )
        assert independent_additive_failures(touching, Schedule(2, (0, None, None)), complete=False) == [
            "chore 1 unassigned but fits agent 0's bundle",
            "chore 2 unassigned but fits agent 0's bundle",
            "chore 1 unassigned but fits agent 1's bundle",
            "chore 2 unassigned but fits agent 1's bundle",
        ]
