"""Decidable predicates for the fairness and efficiency notions.

Envy relaxations are checked pairwise: agent i envies agent k when
v_i(X_i) < v_i(X_k).  EF-k asks for a set of at most k chores whose removal
from the envious bundle kills the envy; EF1 is EF-k with k = 1, EF is k = 0.
EFX demands the removal work for EVERY single chore of the envious bundle.

For additive profiles the single removal search uses the worst-chore
shortcut (removing the r most negative chores is optimal); for opaque
monotone profiles the search is exhaustive over removal subsets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from .core import (
    ConflictGraph,
    InputError,
    Instance,
    Schedule,
    SizeGuardError,
    is_feasible,
)


@dataclass(frozen=True)
class FairnessVerdict:
    """Outcome of a pairwise envy check.

    violations lists (envious agent, envied agent, minimal removal count that
    would cure the pair); witnesses maps cured envious pairs to the chore set
    (from the envious agent's bundle) whose removal kills the envy.
    """

    holds: bool
    violations: tuple[tuple[int, int, int], ...] = ()
    witnesses: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)


def _require_feasible(schedule: Schedule, instance: Instance) -> None:
    if not is_feasible(schedule, instance.graph()):
        raise InputError("schedule is infeasible for the instance's conflict graph")


def _min_removals_additive(
    own_values: list[tuple[int, int]], gap: int
) -> tuple[int, tuple[int, ...]]:
    """Smallest r (and the removed chores) closing an additive envy gap.

    own_values lists the envious bundle's (value, chore) pairs.  Removing the
    r most negative chores raises the bundle value the most, so scanning
    prefixes is exact.
    """
    ordered = sorted(own_values)  # most negative first: (value, chore id)
    removed = 0
    for r, (v, _) in enumerate(ordered, start=1):
        removed += v
        if -removed >= gap:
            return r, tuple(sorted(c for _, c in ordered[:r]))
    raise AssertionError("removing the whole bundle always cures envy of non-positive bundles")


def _min_removals_monotone(
    instance: Instance, agent: int, bundle: frozenset[int], target: int
) -> tuple[int, tuple[int, ...]]:
    """Smallest removal set curing envy under an opaque monotone profile."""
    members = sorted(bundle)
    for r in range(1, len(members) + 1):
        for subset in itertools.combinations(members, r):
            if instance.value(agent, bundle.difference(subset)) >= target:
                return r, subset
    raise AssertionError("empty bundle has value 0 >= any bundle value")


def _min_removals(
    instance: Instance, agent: int, bundle: frozenset[int], own: int, other: int
) -> tuple[int, tuple[int, ...]]:
    """Smallest removal set lifting the agent's own bundle value to other's."""
    if instance.valuations.is_additive:
        values = [(instance.valuations.chore_value(agent, c), c) for c in bundle]
        return _min_removals_additive(values, other - own)
    return _min_removals_monotone(instance, agent, bundle, other)


def _check_envy_pairs(
    schedule: Schedule, instance: Instance, judge: Callable[..., tuple[int, Optional[tuple]]]
) -> FairnessVerdict:
    """Run judge(i, X_i, v_i(X_i), v_i(X_j)) on every pair where i envies j.

    The judge returns a removal count and the witness chores, or None as the
    witness of a violation, whose count is then the minimal one.  An empty bundle is worth 0, at least any bundle's
    value, so an agent holding nothing never envies and is skipped.
    """
    _require_feasible(schedule, instance)
    bundles = schedule.bundles()
    own = [instance.value(i, bundles[i]) for i in range(schedule.n_agents)]
    violations: list[tuple[int, int, int]] = []
    witnesses: dict[tuple[int, int], tuple[int, ...]] = {}
    for i in range(schedule.n_agents):
        for j in range(schedule.n_agents):
            if i == j or not bundles[i]:
                continue
            other = instance.value(i, bundles[j])
            if own[i] >= other:
                continue
            r, witness = judge(i, bundles[i], own[i], other)
            if witness is None:
                violations.append((i, j, r))
            else:
                witnesses[(i, j)] = witness
    return FairnessVerdict(
        holds=not violations, violations=tuple(violations), witnesses=witnesses
    )


def check_efk(schedule: Schedule, instance: Instance, k: int) -> FairnessVerdict:
    """Envy-freeness up to k chores, over all ordered agent pairs."""
    if k < 0:
        raise InputError("k must be non-negative")

    def judge(i, bundle, own, other):
        r, removed = _min_removals(instance, i, bundle, own, other)
        return r, removed if r <= k else None

    return _check_envy_pairs(schedule, instance, judge)


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

    def judge(i, bundle, own, other):
        leftovers = {c: instance.value(i, bundle - {c}) for c in sorted(bundle)}
        if all(v >= other for v in leftovers.values()):
            return 1, (min(leftovers, key=lambda c: (leftovers[c], c)),)
        return _min_removals(instance, i, bundle, own, other)[0], None

    return _check_envy_pairs(schedule, instance, judge)


def is_complete(schedule: Schedule) -> bool:
    """True iff every chore is assigned."""
    return all(a is not None for a in schedule.assignment)


def is_maximal(schedule: Schedule, graph: ConflictGraph) -> bool:
    """True iff no unassigned chore can be added to any bundle without conflict.

    Requires a feasible schedule; infeasible input is rejected.
    """
    if not is_feasible(schedule, graph):
        raise InputError("maximality is only defined for feasible schedules")
    bundle_masks = [0] * schedule.n_agents
    for c, a in enumerate(schedule.assignment):
        if a is not None:
            bundle_masks[a] |= 1 << c
    for c, a in enumerate(schedule.assignment):
        if a is None:
            nbr = graph.neighbor_masks[c]
            if any(not nbr & mask for mask in bundle_masks):
                return False
    return True


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
    if not is_maximal(schedule, instance.graph()):
        raise InputError("Pareto optimality is only defined for maximal schedules")
    from .oracle import enumerate_maximal  # lazy: oracle imports this module

    own = _utilities(schedule, instance)
    return not any(
        _dominates(_utilities(other, instance), own)
        for other in enumerate_maximal(instance, guard=guard)
    )


def _utilities(schedule: Schedule, instance: Instance) -> tuple[int, ...]:
    """Every agent's value of its own bundle."""
    return tuple(instance.value(i, schedule.bundle(i)) for i in range(instance.n))


def _dominates(better: tuple[int, ...], worse: tuple[int, ...]) -> bool:
    """Pareto dominance of utility vectors: no worse anywhere, better somewhere."""
    return better != worse and all(b >= w for b, w in zip(better, worse))
