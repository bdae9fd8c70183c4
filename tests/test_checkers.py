"""Fairness and efficiency predicates against hand-checked and enumerated values."""

import math
import random

import pytest

from choresched import envy_graph
from choresched.checkers import (
    EnvyGraph,
    FairnessVerdict,
    _efk_holds,
    _efx_holds,
    _removal,
    check_ef,
    check_ef1,
    check_efk,
    check_efx,
    is_complete,
    is_maximal,
    is_pareto_optimal,
)
from choresched.core import (
    AdditiveValuations,
    Chore,
    InputError,
    Instance,
    MonotoneValuations,
    Schedule,
    SizeGuardError,
    is_feasible,
    path_instance,
)
from choresched.generate import random_interval_instance, random_path_instance

from conftest import (
    QueryCounter,
    additive_minus_squared_count,
    random_feasible_schedule,
    worst_chore_times_count,
)


EF1_PO_INSTANCE = path_instance([[-2, -10, -1, -10, -2]] * 2)
EFX_MAXIMAL_INSTANCE = path_instance([[-1, -1, -1, -4]] * 2)


class TestCheckEf:
    def test_identical_equal_bundles_hold(self):
        inst = path_instance([[-3, -3]] * 2)
        schedule = Schedule.from_bundles(2, 2, [{0}, {1}])
        assert check_ef(schedule, inst).holds

    def test_extreme_chores_versus_middle(self):
        # holder of both end chores (-4 total) envies the middle holder (-1)
        schedule = Schedule.from_bundles(2, 5, [{0, 4}, {2}])
        verdict = check_ef(schedule, EF1_PO_INSTANCE)
        assert not verdict.holds
        assert (0, 1, 2) in verdict.violations  # two removals needed

    def test_empty_schedule_holds(self):
        assert check_ef(Schedule.empty(2, 5), EF1_PO_INSTANCE).holds

    def test_infeasible_rejected(self):
        with pytest.raises(InputError):
            check_ef(Schedule.from_bundles(2, 5, [{0, 1}, set()]), EF1_PO_INSTANCE)


class TestCheckEf1:
    def test_extremes_vs_middle_fails(self):
        # removing either -2 end chore still leaves -2 < -1
        schedule = Schedule.from_bundles(2, 5, [{0, 4}, {2}])
        verdict = check_ef1(schedule, EF1_PO_INSTANCE)
        assert not verdict.holds
        assert verdict.violations == ((0, 1, 2),)

    def test_round_robin_outcome_fails_for_second_agent(self):
        inst = path_instance([[0, -7, -2, -1, -3, -8, -9, -10]] * 2)
        schedule = Schedule.from_bundles(2, 8, [{0, 2, 4, 6}, {3, 1, 5, 7}])
        verdict = check_ef1(schedule, inst)
        assert not verdict.holds
        assert [v[:2] for v in verdict.violations] == [(1, 0)]

    def test_singleton_bundles_hold(self):
        inst = path_instance([[-9, -1, -6]] * 3)
        schedule = Schedule.from_bundles(3, 3, [{0}, {1}, {2}])
        assert check_ef1(schedule, inst).holds

    def test_witness_chores_come_from_envious_bundle(self):
        inst = path_instance([[-9, -2, -1]] * 2)
        schedule = Schedule.from_bundles(2, 3, [{0, 2}, {1}])
        verdict = check_ef1(schedule, inst)
        assert verdict.holds
        assert verdict.witnesses[(0, 1)] == (0,)  # dropping the -9 chore cures
        for (i, _), chores in verdict.witnesses.items():
            assert set(chores) <= schedule.bundle(i)


class TestCheckEfx:
    def test_counterexample_bundle_fails(self):
        # first agent holds the big chore plus one unit chore
        schedule = Schedule.from_bundles(2, 4, [{3, 1}, {0, 2}])
        verdict = check_efx(schedule, EFX_MAXIMAL_INSTANCE)
        assert not verdict.holds
        assert [v[:2] for v in verdict.violations] == [(0, 1)]

    def test_ef_implies_efx(self):
        inst = path_instance([[-3, -3]] * 2)
        schedule = Schedule.from_bundles(2, 2, [{0}, {1}])
        assert check_ef(schedule, inst).holds
        assert check_efx(schedule, inst).holds

    def test_single_chore_bundles(self):
        # -4 holder envies -1 holder but its only removal empties the bundle
        inst = path_instance([[-1, 0, -4]] * 2)
        schedule = Schedule.from_bundles(2, 3, [{0}, {2}])
        assert check_efx(schedule, inst).holds

    def test_empty_envious_bundle_vacuous(self):
        inst = path_instance([[0, 0]] * 2)
        schedule = Schedule.from_bundles(2, 2, [{0, 1} - {1}, {1}])
        assert check_efx(schedule, inst).holds


class TestCheckEfk:
    def test_k0_is_ef_and_k1_is_ef1(self):
        rng = random.Random(11)
        for _ in range(300):
            inst = random_interval_instance(rng, rng.randint(2, 4), rng.randint(1, 8))
            schedule = random_feasible_schedule(rng, inst)
            assert check_efk(schedule, inst, 0) == check_ef(schedule, inst)
            assert check_efk(schedule, inst, 1) == check_ef1(schedule, inst)

    def test_ef2_but_not_ef1(self):
        # frozen search result: two unit chores against an empty bundle
        inst = path_instance([[-1, -1, -1]] * 2)
        schedule = Schedule.from_bundles(2, 3, [{0, 2}, set()])
        assert not check_efk(schedule, inst, 1).holds
        assert check_efk(schedule, inst, 2).holds

    def test_negative_k_rejected(self):
        with pytest.raises(InputError):
            check_efk(Schedule.empty(2, 5), EF1_PO_INSTANCE, -1)

    def test_monotone_oracle_matches_additive_shortcut(self):
        # same values, one profile opaque: verdict fields must agree
        rng = random.Random(23)
        for _ in range(100):
            m = rng.randint(1, 7)
            inst = random_interval_instance(rng, 2, m)
            table = inst.valuations.table
            opaque = Instance(
                2,
                inst.chores,
                MonotoneValuations(
                    2, m, lambda i, b, table=table: sum(table[i][c] for c in b)
                ),
            )
            schedule = random_feasible_schedule(rng, inst)
            for k in (0, 1, 2):
                fast = check_efk(schedule, inst, k)
                slow = check_efk(schedule, opaque, k)
                assert fast.holds == slow.holds
                assert fast.violations == slow.violations


class TestImplicationChain:
    def test_ef_implies_efx_implies_ef1_and_k_monotone(self):
        rng = random.Random(7)
        for _ in range(400):
            inst = random_interval_instance(rng, rng.randint(2, 3), rng.randint(1, 8))
            schedule = random_feasible_schedule(rng, inst)
            ef = check_ef(schedule, inst).holds
            efx = check_efx(schedule, inst).holds
            ef1 = check_ef1(schedule, inst).holds
            if ef:
                assert efx
            if efx:
                assert ef1
            previous = None
            for k in range(0, 4):
                holds = check_efk(schedule, inst, k).holds
                if previous is not None and previous:
                    assert holds
                previous = holds


def test_efk_decision_matches_the_verdict_on_criterion_8_pairs():
    # Acceptance criterion 8's 10,000 pairs (same seed, same draws), each
    # judged under its additive profile and under two opaque monotone ones,
    # for EF-k with k = 0, 1, 2 and for EFX.
    rng = random.Random(8888)
    seen = set()
    for _ in range(10_000):
        n = rng.randint(2, 4)
        m = rng.randint(1, 8)
        inst = random_interval_instance(rng, n, m)
        schedule = random_feasible_schedule(rng, inst)
        table = inst.valuations.table
        profiles = [("additive", inst)] + [
            (family.__name__, Instance(n, inst.chores, MonotoneValuations(n, m, family(table))))
            for family in (worst_chore_times_count, additive_minus_squared_count)
        ]
        for name, profile in profiles:
            for k in (0, 1, 2):
                holds = _efk_holds(schedule, profile, k)
                assert holds == check_efk(schedule, profile, k).holds
                seen.add((name, k, holds))
            holds = _efx_holds(schedule, profile)
            assert holds == check_efx(schedule, profile).holds
            seen.add((name, "efx", holds))
    assert len(seen) == 3 * 4 * 2


def reference_envy_pairs(schedule, instance):
    """The pairwise envy pass: v_i(X_j) valued on its own for every ordered
    pair, i ascending, then j ascending; an agent holding nothing is skipped."""
    if schedule.n_agents != instance.n:
        raise InputError(f"schedule has {schedule.n_agents} agents, the instance {instance.n}")
    if not is_feasible(schedule, instance.graph()):
        raise InputError("schedule is infeasible for the instance's conflict graph")
    bundles = schedule.bundles()
    for i, bundle in enumerate(bundles):
        if not bundle:
            continue
        own = instance.value(i, bundle)
        for j, theirs in enumerate(bundles):
            if i != j:
                other = instance.value(i, theirs)
                if own < other:
                    yield i, j, bundle, own, other


def reference_efk(schedule, instance, k):
    violations, witnesses = [], {}
    for i, j, bundle, own, other in reference_envy_pairs(schedule, instance):
        removed = _removal(instance, i, bundle, own, other, len(bundle))
        if len(removed) <= k:
            witnesses[(i, j)] = removed
        else:
            violations.append((i, j, len(removed)))
    return FairnessVerdict(not violations, tuple(violations), witnesses)


def reference_efx(schedule, instance):
    violations, witnesses = [], {}
    for i, j, bundle, own, other in reference_envy_pairs(schedule, instance):
        leftovers = {c: instance.value(i, bundle - {c}) for c in sorted(bundle)}
        if all(v >= other for v in leftovers.values()):
            witnesses[(i, j)] = (min(leftovers, key=lambda c: (leftovers[c], c)),)
        else:
            removed = _removal(instance, i, bundle, own, other, len(bundle))
            violations.append((i, j, len(removed)))
    return FairnessVerdict(not violations, tuple(violations), witnesses)


def reference_efk_holds(schedule, instance, k):
    """One removal search per envious pair."""
    return all(
        _removal(instance, i, bundle, own, other, k) is not None
        for i, _, bundle, own, other in reference_envy_pairs(schedule, instance)
    )


def profiles_over(rng, inst):
    """The instance's chores under additive profiles whose rows are all one
    row, drawn from a pool of two, or all distinct, and under two monotone
    ones."""
    n, m = inst.n, inst.m
    pool = [[rng.randint(-4, 0) for _ in range(m)] for _ in range(2)]
    tables = {
        "identical": [list(pool[0]) for _ in range(n)],
        "pool of 2": [list(rng.choice(pool)) for _ in range(n)],
        "distinct": [[rng.randint(-4, 0) for _ in range(m)] for _ in range(n)],
    }
    for name, table in tables.items():
        yield name, Instance(n, inst.chores, AdditiveValuations(table))
    table = tables["distinct"]
    for family in (worst_chore_times_count, additive_minus_squared_count):
        yield family.__name__, Instance(n, inst.chores, MonotoneValuations(n, m, family(table)))


def outcome(check, *args):
    try:
        return check(*args)
    except InputError as exc:
        return f"InputError: {exc}"


def test_envy_pass_matches_the_pairwise_reference():
    rng = random.Random(1313)
    seen = set()
    for _ in range(1500):
        n = rng.randint(1, 6)
        inst = random_interval_instance(rng, n, rng.randint(1, 8))
        schedule = random_feasible_schedule(rng, inst)
        empty = any(not b for b in schedule.bundles())
        for name, profile in profiles_over(rng, inst):
            if profile.valuations.is_additive:
                # Equal rows share one object, so the pass sums each once.
                table = profile.valuations.table
                assert len({id(row) for row in table}) == len(set(table))
            for k in (0, 1, 2):
                verdict = check_efk(schedule, profile, k)
                assert verdict == reference_efk(schedule, profile, k)
                assert _efk_holds(schedule, profile, k) == reference_efk_holds(schedule, profile, k)
                seen.add((name, k, verdict.holds, empty))
            assert check_efx(schedule, profile) == reference_efx(schedule, profile)
            edges = {(i, j) for i, j, *_ in reference_envy_pairs(schedule, profile)}
            assert envy_graph(schedule, profile).edges == edges
    assert len(seen) == 5 * 3 * 2 * 2


@pytest.mark.parametrize(
    "check, reference",
    [
        (check_ef1, lambda s, i: reference_efk(s, i, 1)),
        (check_efx, reference_efx),
        (lambda s, i: _efk_holds(s, i, 1), lambda s, i: reference_efk_holds(s, i, 1)),
        (envy_graph, lambda s, i: list(reference_envy_pairs(s, i))),
    ],
    ids=["ef1", "efx", "efk_holds", "envy_graph"],
)
@pytest.mark.parametrize(
    "schedule",
    [Schedule(2, (0, 0, None)), Schedule(3, (2, None, 0)), Schedule(1, (0, None, None))],
    ids=["infeasible", "three agents", "one agent"],
)
def test_envy_pass_rejects_with_the_pairwise_reference_texts(check, reference, schedule):
    additive = path_instance([[-1, -2, -3]] * 2)
    monotone = Instance(2, additive.chores, MonotoneValuations(2, 3, lambda i, b: -len(b)))
    for profile in (additive, monotone):
        got = outcome(check, schedule, profile)
        assert isinstance(got, str) and got == outcome(reference, schedule, profile)


def removal_searches_bound(schedule, k):
    """n^2 bundle values plus one search of at most k removals per agent."""
    n = schedule.n_agents
    size = max(len(b) for b in schedule.bundles())
    return n * n + n * sum(math.comb(size, r) for r in range(1, k + 1))


def test_efk_decision_searches_each_envious_agent_once():
    # Agents 0 and 1 each hold six isolated chores, of which only the last
    # hurts them, and value every other chore at 0: each envies both other
    # agents, and only its last single removal cures it.  One search per
    # envious pair would take 2 * 3 + 4 * 6 = 30 queries, over the bound 27.
    counter = QueryCounter()
    chores = tuple(Chore(id=c, start=2 * c, finish=2 * c + 1) for c in range(12))
    pain = {0: 5, 1: 11}
    profile = MonotoneValuations(3, 12, counter.wrap(lambda i, b: -10 if pain.get(i) in b else 0))
    schedule = Schedule.from_bundles(3, 12, [range(6), range(6, 12), ()])
    counter.queries = 0
    assert _efk_holds(schedule, Instance(3, chores, profile), 1)
    assert counter.queries == 2 * (3 + 6) <= removal_searches_bound(schedule, 1) == 27

    rng = random.Random(4242)
    for _ in range(600):
        n, m = rng.randint(3, 6), rng.randint(1, 10)
        inst = random_interval_instance(rng, n, m)
        schedule = random_feasible_schedule(rng, inst)
        for family in (worst_chore_times_count, additive_minus_squared_count):
            fn = counter.wrap(family(inst.valuations.table))
            counted = Instance(n, inst.chores, MonotoneValuations(n, m, fn))
            for k in (0, 1, 2):
                counter.queries = 0
                _efk_holds(schedule, counted, k)
                assert counter.queries <= removal_searches_bound(schedule, k)


class TestIsMaximal:
    def test_complete_schedule_is_maximal(self):
        schedule = Schedule.from_bundles(2, 4, [{1, 3}, {0, 2}])
        assert is_maximal(schedule, EFX_MAXIMAL_INSTANCE.graph())

    def test_alternating_even_odd_split(self):
        schedule = Schedule.from_bundles(2, 4, [{1, 3}, {0, 2}])
        assert is_maximal(schedule, EFX_MAXIMAL_INSTANCE.graph())
        assert is_complete(schedule)

    def test_star_with_idle_agent_not_maximal(self):
        chores = tuple(
            Chore(id=i, start=s, finish=f)
            for i, (s, f) in enumerate([(0, 3), (0, 1), (1, 2), (2, 3)])
        )
        inst = Instance(2, chores, AdditiveValuations([[-1] * 4] * 2))
        schedule = Schedule.from_bundles(2, 4, [{0}, set()])
        assert not is_maximal(schedule, inst.graph())

    def test_infeasible_rejected(self):
        schedule = Schedule.from_bundles(2, 4, [{0, 1}, set()])
        with pytest.raises(InputError):
            is_maximal(schedule, EFX_MAXIMAL_INSTANCE.graph())


class TestIsComplete:
    def test_all_assigned(self):
        assert is_complete(Schedule(2, (0, 1, 0)))

    def test_one_unassigned(self):
        assert not is_complete(Schedule(2, (0, None, 0)))

    def test_on_paths_with_three_agents_maximal_iff_complete(self):
        rng = random.Random(19)
        for _ in range(200):
            inst = random_path_instance(rng, rng.randint(3, 5), rng.randint(1, 8))
            schedule = random_feasible_schedule(rng, inst)
            assert is_maximal(schedule, inst.graph()) == is_complete(schedule)


class TestIsParetoOptimal:
    def test_utilitarian_optimum_is_pareto_optimal(self):
        from choresched.oracle import max_utilitarian_maximal

        best = max_utilitarian_maximal(EF1_PO_INSTANCE)
        assert is_pareto_optimal(best, EF1_PO_INSTANCE)

    def test_schedule_with_heavy_chores_is_dominated(self):
        # taking the -10 chores is dominated by the ends-versus-middle split
        schedule = Schedule.from_bundles(2, 5, [{1, 3}, {0, 2, 4}])
        assert is_maximal(schedule, EF1_PO_INSTANCE.graph())
        assert not is_pareto_optimal(schedule, EF1_PO_INSTANCE)

    def test_single_chore_assigned(self):
        inst = path_instance([[-2]] * 2)
        schedule = Schedule.from_bundles(2, 1, [{0}, set()])
        assert is_pareto_optimal(schedule, inst)

    def test_guard_rejected(self):
        inst = path_instance([[-1] * 17] * 2)
        schedule = Schedule.from_bundles(2, 17, [set(range(0, 17, 2)), set(range(1, 17, 2))])
        with pytest.raises(SizeGuardError):
            is_pareto_optimal(schedule, inst)

    def test_non_maximal_rejected(self):
        with pytest.raises(InputError):
            is_pareto_optimal(Schedule.empty(2, 5), EF1_PO_INSTANCE)


@pytest.mark.parametrize("check", [check_ef1, check_efx, envy_graph, is_pareto_optimal])
@pytest.mark.parametrize(
    "schedule", [Schedule(1, (0, None, 0)), Schedule(3, (2, None, 0))], ids=["one", "three"]
)
def test_schedule_for_another_agent_count_rejected(check, schedule):
    # Unchecked, a one-agent schedule passes EF1 with agent 1 never judged,
    # and a three-agent one indexes past the instance's value rows.
    inst = path_instance([[-1, -2, -3]] * 2)
    with pytest.raises(InputError, match=f"^schedule has {schedule.n_agents} agents, the instance 2$"):
        check(schedule, inst)


def reference_topological_order(n, edges):
    """Kahn's algorithm as EnvyGraph ran it before its heap: the ready list
    re-sorted after every vertex, its lowest id taken first."""
    indeg = [0] * n
    out = {i: [] for i in range(n)}
    for i, k in sorted(edges):
        indeg[k] += 1
        out[i].append(k)
    ready = sorted(i for i in range(n) if indeg[i] == 0)
    order = []
    while ready:
        v = ready.pop(0)
        order.append(v)
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
        ready.sort()
    if len(order) != n:
        raise InputError("envy graph contains a cycle")
    return tuple(order)


def test_topological_order_matches_the_resorting_reference():
    rng = random.Random(41)
    cyclic = 0
    for _ in range(3000):
        n = rng.randint(1, 12)
        rank = list(range(n))
        rng.shuffle(rank)
        # Edges from lower to higher rank make a DAG; any reversed edge may close a cycle.
        edges = {
            (i, k) if rank[i] < rank[k] else (k, i)
            for i in range(n)
            for k in range(n)
            if i != k and rng.random() < 0.3
        }
        if n > 1 and rng.random() < 0.3:
            i, k = rng.sample(range(n), 2)
            edges.add((i, k))
        graph = EnvyGraph(n, frozenset(edges))
        try:
            expected = reference_topological_order(n, edges)
        except InputError as exc:
            cyclic += 1
            with pytest.raises(InputError, match=f"^{exc}$"):
                graph.topological_order()
            assert not graph.is_acyclic()
        else:
            assert graph.topological_order() == expected
            assert graph.is_acyclic()
    assert 100 < cyclic < 2000
