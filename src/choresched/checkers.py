"""Decidable predicates for the fairness and efficiency notions.

Envy relaxations are checked pairwise: agent i envies agent k when
v_i(X_i) < v_i(X_k).  EF-k asks for a set of at most k chores whose removal
from the envious bundle kills the envy; EF1 is EF-k with k = 1, EF is k = 0.
EFX demands the removal work for EVERY single chore of the envious bundle.

One removal search serves every check: the worst-chore shortcut for
additive profiles (removing the r most negative chores is optimal), subsets
by size for opaque monotone ones.  A yes/no EF-k decision (_efk_holds)
searches each envious agent once, for at most k removals, against the
bundle it envies most.  A yes/no EFX decision (_efx_holds) checks each
envious agent once against that bundle too: under an additive profile the
agent's least burdensome chore decides, under a monotone one every single
removal is tried until one falls short.  A public verdict also reports each
violation's minimal count, which under a monotone profile may try every
removal subset.

The checks and envy_graph share one envy pass, which rejects infeasible
schedules and a wrong agent count.  The n-agent solvers' traps enter it past
that check (_value_rows), with the bundles of a schedule they have just
proven feasible, and read its rows for the burdens, the envy graph and EF1.  It values bundles per distinct
valuation row: an additive profile sums the n bundles once for each
distinct row, and every agent with that row reads its values from those
sums, so an identical profile costs O(m) and an all-distinct one O(n * m).
A monotone profile is valued agent by agent, only as far as the caller
reads.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from .core import (
    ConflictGraph,
    InputError,
    Instance,
    Schedule,
    SizeGuardError,
    _bundle_masks,
    is_feasible,
)


@dataclass(frozen=True)
class FairnessVerdict:
    """Outcome of a pairwise envy check.

    violations lists (envious agent, envied agent, minimal removal count that
    would cure the pair, found by an unbounded search); witnesses maps cured
    envious pairs to the chore set (from the envious agent's bundle) whose
    removal kills the envy.
    """

    holds: bool
    violations: tuple[tuple[int, int, int], ...] = ()
    witnesses: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)


def _removal(
    instance: Instance, agent: int, bundle: frozenset[int], own: int, other: int, limit: int
) -> Optional[tuple[int, ...]]:
    """The smallest set of at most limit chores, sorted by id, whose removal
    lifts v_agent(bundle) = own to other; None if there is none.

    Additive profiles scan the prefixes of the (value, chore)-sorted bundle;
    monotone ones try subsets by size, each size in chore-id order.  With
    limit = len(bundle) a set always exists: the empty bundle is worth 0.
    """
    if instance.valuations.is_additive:
        chore_value = instance.valuations.chore_value
        ordered = sorted((chore_value(agent, c), c) for c in bundle)[:limit]
        for r, removed in enumerate(itertools.accumulate(v for v, _ in ordered), start=1):
            if own - removed >= other:
                return tuple(sorted(c for _, c in ordered[:r]))
        return None
    members = sorted(bundle)
    for r in range(1, limit + 1):
        for subset in itertools.combinations(members, r):
            if instance.value(agent, bundle.difference(subset)) >= other:
                return subset
    return None


def _require_agents(schedule: Schedule, instance: Instance) -> None:
    if schedule.n_agents != instance.n:
        raise InputError(f"schedule has {schedule.n_agents} agents, the instance {instance.n}")


def _require_feasible(schedule: Schedule, instance: Instance) -> None:
    _require_agents(schedule, instance)
    if not is_feasible(schedule, instance.graph()):
        raise InputError("schedule is infeasible for the instance's conflict graph")


_EnvyRow = tuple[int, frozenset[int], list[int]]


def _envy_rows(schedule: Schedule, instance: Instance) -> Iterator[_EnvyRow]:
    """Yield (i, X_i, [v_i(X_j) for every agent j]) for every agent i holding
    a chore, i ascending, after rejecting an infeasible schedule."""
    _require_feasible(schedule, instance)
    return _value_rows(schedule.bundles(), instance)


def _value_rows(bundles: Sequence[frozenset[int]], instance: Instance) -> Iterator[_EnvyRow]:
    """_envy_rows from the bundles of a schedule the caller holds and has
    already proven feasible for the instance's agents.

    An empty bundle is worth 0, at least any bundle's value, so an agent
    holding nothing never envies and is skipped.  An additive profile sums
    the bundles once per distinct row; AdditiveValuations keeps one object
    per distinct row, so the row's id names it.  A monotone profile answers
    v_i(X_i) and then v_i(X_j), j ascending, when agent i's entry is drawn.
    """
    if instance.valuations.is_additive:
        table = instance.valuations.table
        sums_by_row: dict[int, list[int]] = {}
        for i, bundle in enumerate(bundles):
            if bundle:
                row = table[i]
                sums = sums_by_row.get(id(row))
                if sums is None:
                    sums = sums_by_row[id(row)] = [sum(map(row.__getitem__, b)) for b in bundles]
                yield i, bundle, sums
        return
    for i, bundle in enumerate(bundles):
        if bundle:
            own = instance.value(i, bundle)
            yield i, bundle, [own if j == i else instance.value(i, b) for j, b in enumerate(bundles)]


def _envy_pairs(rows: Iterable[_EnvyRow]) -> Iterator[tuple[int, int, frozenset[int], int, int]]:
    """Yield (i, j, X_i, v_i(X_i), v_i(X_j)) for every pair where i envies j,
    i ascending, then j ascending, from the rows of _envy_rows."""
    for i, bundle, values in rows:
        own = values[i]
        for j, other in enumerate(values):
            if own < other:
                yield i, j, bundle, own, other


def _efk_holds(schedule: Schedule, instance: Instance, k: int) -> bool:
    """check_efk(schedule, instance, k).holds, without any minimal count.

    Envious agents come in ascending order, each searched once for at most k
    removals against the bundle it envies most: a removal that cures that
    pair cures every pair of the agent.  The first agent none cures ends the
    decision.  A monotone profile thus answers O(n^2 + n * |X_i|^k) value
    queries.
    """
    return _rows_efk_hold(_envy_rows(schedule, instance), instance, k)


def _rows_efk_hold(rows: Iterable[_EnvyRow], instance: Instance, k: int) -> bool:
    """_efk_holds on rows the caller already holds."""
    for i, bundle, values in rows:
        most = max(values)
        if values[i] < most and _removal(instance, i, bundle, values[i], most, k) is None:
            return False
    return True


def _efx_holds(schedule: Schedule, instance: Instance) -> bool:
    """check_efx(schedule, instance).holds, without witnesses or counts.

    As in _efk_holds, each envious agent is checked once, against the bundle
    it envies most: every single removal that lifts its value to that
    bundle's lifts it to every other.  Under an additive profile the weakest
    removal drops the agent's least burdensome chore, so one max over the
    bundle decides; a monotone profile tries each removal and stops at the
    first that falls short.
    """
    additive = instance.valuations.is_additive
    for i, bundle, values in _envy_rows(schedule, instance):
        own, most = values[i], max(values)
        if own >= most:
            continue
        if additive:
            if own - max(map(instance.valuations.table[i].__getitem__, bundle)) < most:
                return False
        elif any(instance.value(i, bundle - {c}) < most for c in bundle):
            return False
    return True


def check_efk(schedule: Schedule, instance: Instance, k: int) -> FairnessVerdict:
    """Envy-freeness up to k chores, over all ordered agent pairs."""
    if k < 0:
        raise InputError("k must be non-negative")
    violations, witnesses = [], {}
    for i, j, bundle, own, other in _envy_pairs(_envy_rows(schedule, instance)):
        removed = _removal(instance, i, bundle, own, other, len(bundle))
        if len(removed) <= k:
            witnesses[(i, j)] = removed
        else:
            violations.append((i, j, len(removed)))
    return FairnessVerdict(not violations, tuple(violations), witnesses)


def check_ef(schedule: Schedule, instance: Instance) -> FairnessVerdict:
    """Exact envy-freeness: v_i(X_i) >= v_i(X_k) for every ordered pair."""
    return check_efk(schedule, instance, 0)


def check_ef1(schedule: Schedule, instance: Instance) -> FairnessVerdict:
    """Envy-freeness up to one chore."""
    return check_efk(schedule, instance, 1)


def check_efx(schedule: Schedule, instance: Instance) -> FairnessVerdict:
    """Envy-freeness up to any chore: every single removal must kill the envy.

    A pair with an empty envious bundle is vacuously satisfied.  For a cured
    envious pair the witness is the tightest chore, i.e. the one whose removal
    leaves the least slack.
    """
    violations, witnesses = [], {}
    for i, j, bundle, own, other in _envy_pairs(_envy_rows(schedule, instance)):
        leftovers = {c: instance.value(i, bundle - {c}) for c in sorted(bundle)}
        if all(v >= other for v in leftovers.values()):
            witnesses[(i, j)] = (min(leftovers, key=lambda c: (leftovers[c], c)),)
        else:
            removed = _removal(instance, i, bundle, own, other, len(bundle))
            violations.append((i, j, len(removed)))
    return FairnessVerdict(not violations, tuple(violations), witnesses)


def is_complete(schedule: Schedule) -> bool:
    """True iff every chore is assigned."""
    return all(a is not None for a in schedule.assignment)


def is_maximal(schedule: Schedule, graph: ConflictGraph) -> bool:
    """True iff no unassigned chore can be added to any bundle without conflict.

    Requires a feasible schedule; infeasible input is rejected.
    """
    bundle_masks = _bundle_masks(schedule, graph)
    if bundle_masks is None:
        raise InputError("maximality is only defined for feasible schedules")
    free = (graph.neighbor_masks[c] for c, a in enumerate(schedule.assignment) if a is None)
    return all(all(nbr & mask for mask in bundle_masks) for nbr in free)


def is_pareto_optimal(schedule: Schedule, instance: Instance, guard: int = 16) -> bool:
    """True iff no other maximal schedule Pareto-dominates the given one.

    Pareto optimality is defined relative to ALL maximal schedules, so this
    enumerates them; the guard keeps the enumeration desk-scale.  The input
    must itself be maximal.
    """
    if instance.m > guard:
        raise SizeGuardError(
            f"Pareto check enumerates all maximal schedules; {instance.m} chores exceed the guard {guard}"
        )
    _require_agents(schedule, instance)
    if not is_maximal(schedule, instance.graph()):
        raise InputError("Pareto optimality is only defined for maximal schedules")
    from .oracle import _valued  # lazy: oracle imports this module

    own = _utilities(schedule, instance)
    return not any(_dominates(tuple(other), own) for _, other in _valued(instance, guard))


def _utilities(schedule: Schedule, instance: Instance) -> tuple[int, ...]:
    """Every agent's value of its own bundle."""
    return tuple(instance.value(i, bundle) for i, bundle in enumerate(schedule.bundles()))


@dataclass(frozen=True)
class EnvyGraph:
    """Directed graph with an edge (i, k) whenever agent i envies agent k."""

    n: int
    edges: frozenset[tuple[int, int]]

    def is_acyclic(self) -> bool:
        try:
            self.topological_order()
            return True
        except InputError:
            return False

    def topological_order(self) -> tuple[int, ...]:
        """A deterministic topological order (Kahn's algorithm, lowest ready id
        first, from a heap)."""
        indeg = [0] * self.n
        out: list[list[int]] = [[] for _ in range(self.n)]
        for i, k in self.edges:
            indeg[k] += 1
            out[i].append(k)
        ready = [i for i in range(self.n) if indeg[i] == 0]
        order: list[int] = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for w in out[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(ready, w)
        if len(order) != self.n:
            raise InputError("envy graph contains a cycle")
        return tuple(order)


def envy_graph(schedule: Schedule, instance: Instance) -> EnvyGraph:
    """The envy digraph of a feasible schedule: (i, k) iff v_i(X_i) < v_i(X_k)."""
    return _rows_envy_graph(_envy_rows(schedule, instance), instance.n)


def _rows_envy_graph(rows: Iterable[_EnvyRow], n: int) -> EnvyGraph:
    """envy_graph on rows the caller already holds."""
    return EnvyGraph(n=n, edges=frozenset((i, k) for i, k, *_ in _envy_pairs(rows)))


def _dominates(better: tuple[int, ...], worse: tuple[int, ...]) -> bool:
    """Pareto dominance of utility vectors: no worse anywhere, better somewhere."""
    return better != worse and all(b >= w for b, w in zip(better, worse))
