"""Exhaustive ground truth for small instances.

enumerate_maximal walks every feasible-and-maximal schedule of an instance,
exists() answers fairness-existence queries over that space, and the demo_*
functions replay the classic round-robin and top-trading envy-cycle
procedures whose EF1 guarantees break under conflict constraints.

Everything here is desk-scale by design: correctness over speed, with a size
guard on the enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .checkers import (
    FairnessVerdict,
    _dominates,
    _utilities,
    check_ef1,
    check_efk,
    check_efx,
    is_complete,
)
from .core import (
    InputError,
    Instance,
    Schedule,
    SizeGuardError,
)

CRITERIA = ("ef", "ef1", "efx", "efk", "ef1+po", "ef1+complete")


@dataclass(frozen=True)
class ExistenceQuery:
    """A fairness-existence question over the maximal schedules of an instance.

    criterion is one of CRITERIA; every criterion implicitly includes
    maximality (the search space is the maximal schedules).  k is required
    for "efk"; guard overrides the enumeration size guard.
    """

    instance: Instance
    criterion: str
    k: Optional[int] = None
    guard: Optional[int] = None

    def __post_init__(self) -> None:
        if self.criterion not in CRITERIA:
            raise InputError(f"unknown criterion {self.criterion!r}; expected one of {CRITERIA}")
        if self.criterion == "efk" and (self.k is None or self.k < 0):
            raise InputError("criterion 'efk' needs a non-negative k")


def enumerate_maximal(instance: Instance, guard: int = 16) -> Iterator[Schedule]:
    """Yield every feasible-and-maximal schedule exactly once.

    The order is deterministic: lexicographic in the assignment vector with
    agent 0 < agent 1 < ... < unassigned.  The search assigns chores in id
    order, prunes infeasible branches immediately, and prunes "leave it
    unassigned" branches that can never become blocked.
    """
    if instance.m > guard:
        raise SizeGuardError(
            f"enumeration over {instance.m} chores exceeds the guard {guard}"
        )
    graph = instance.graph()
    n, m = instance.n, instance.m
    nbr = graph.neighbor_masks
    assignment: list[Optional[int]] = [None] * m
    bundle_masks = [0] * n

    def blocked_everywhere(c: int) -> bool:
        mask = nbr[c]
        return all(mask & bm for bm in bundle_masks)

    def walk(c: int) -> Iterator[Schedule]:
        if c == m:
            if all(
                assignment[x] is not None or blocked_everywhere(x) for x in range(m)
            ):
                yield Schedule(n, tuple(assignment))
            return
        mask = nbr[c]
        for agent in range(n):
            if mask & bundle_masks[agent]:
                continue
            assignment[c] = agent
            bundle_masks[agent] |= 1 << c
            yield from walk(c + 1)
            bundle_masks[agent] &= ~(1 << c)
            assignment[c] = None
        # Unassigned branch: prune when some agent could take c now and no
        # future chore overlaps c, so c would stay assignable forever.
        future = ((1 << m) - 1) & ~((1 << (c + 1)) - 1)
        if mask & future or all(mask & bm for bm in bundle_masks):
            yield from walk(c + 1)

    return walk(0)


def exists(query: ExistenceQuery) -> Optional[Schedule]:
    """Return a witness maximal schedule satisfying the criterion, or None.

    The answer is definitive: None means no maximal schedule of the instance
    satisfies the criterion.
    """
    instance = query.instance
    guard = query.guard if query.guard is not None else 16
    if query.criterion == "ef1+po":
        return _exists_ef1_po(instance, guard)
    for schedule in enumerate_maximal(instance, guard=guard):
        if _criterion_holds(schedule, instance, query):
            return schedule
    return None


def _criterion_holds(schedule: Schedule, instance: Instance, query: ExistenceQuery) -> bool:
    if query.criterion == "ef1+complete":
        return is_complete(schedule) and check_ef1(schedule, instance).holds
    return _envy_verdict(schedule, instance, query.criterion, query.k).holds


def _envy_verdict(
    schedule: Schedule, instance: Instance, criterion: str, k: Optional[int] = None
) -> FairnessVerdict:
    """The verdict of the envy criterion "ef", "ef1", "efx" or "efk" (with k)."""
    if criterion == "efx":
        return check_efx(schedule, instance)
    return check_efk(schedule, instance, {"ef": 0, "ef1": 1, "efk": k}[criterion])


def _exists_ef1_po(instance: Instance, guard: int) -> Optional[Schedule]:
    """EF1 among maximal schedules not Pareto-dominated by any maximal schedule.

    The Pareto frontier of the distinct utility vectors is found once: in
    descending lexicographic order a dominating vector always comes before
    the vectors it dominates, so a vector is on the frontier iff no frontier
    vector found before it dominates it.  The witness is the first schedule,
    in enumeration order, whose vector is on the frontier and that passes
    EF1.
    """
    schedules = list(enumerate_maximal(instance, guard=guard))
    utilities = [_utilities(s, instance) for s in schedules]
    frontier: list[tuple[int, ...]] = []
    for vector in sorted(set(utilities), reverse=True):
        if not any(_dominates(better, vector) for better in frontier):
            frontier.append(vector)
    undominated = set(frontier)
    for s, mine in zip(schedules, utilities):
        if mine in undominated and check_ef1(s, instance).holds:
            return s
    return None


def max_utilitarian_maximal(instance: Instance, guard: int = 16) -> Schedule:
    """A maximal schedule maximizing the sum of agents' utilities.

    Such a schedule is Pareto optimal.  Ties go to the first schedule in
    enumeration order.
    """
    best: Optional[Schedule] = None
    best_total: Optional[int] = None
    for schedule in enumerate_maximal(instance, guard=guard):
        total = sum(_utilities(schedule, instance))
        if best_total is None or total > best_total:
            best, best_total = schedule, total
    if best is None:
        raise AssertionError("every instance has at least one maximal schedule")
    return best


def demo_round_robin(
    instance: Instance, agent_order: Optional[Sequence[int]] = None
):
    """Round robin under conflicts: each agent picks its favorite feasible chore.

    Agents take turns in the given order (default: ascending index).  On its
    turn an agent picks the highest-valued unassigned chore that does not
    conflict with its bundle, ties broken by lowest chore id; an agent with no
    feasible chore passes.  The process stops when a full cycle passes.
    Returns the schedule and its EF1 verdict.
    """
    if not instance.valuations.is_additive:
        raise InputError("round robin demo needs an additive profile")
    order = tuple(agent_order) if agent_order is not None else tuple(range(instance.n))
    if sorted(order) != list(range(instance.n)):
        raise InputError("agent_order must be a permutation of all agents")
    assignment: list[Optional[int]] = [None] * instance.m
    bundle_masks = [0] * instance.n
    while True:
        picked_any = False
        for agent in order:
            choice = _favourite_feasible(instance, agent, assignment, bundle_masks[agent])
            if choice is None:
                continue
            assignment[choice] = agent
            bundle_masks[agent] |= 1 << choice
            picked_any = True
        if not picked_any:
            break
    schedule = Schedule(instance.n, tuple(assignment))
    return schedule, check_ef1(schedule, instance)


def demo_top_trading_envy_cycle(instance: Instance):
    """Sink-picking allocation for identical valuations.

    With identical valuations an envy cycle never occurs, so a sink (an agent
    envying no one, i.e. with maximal bundle value) always exists.  At each
    step the best-off agent that still has a feasible chore picks its
    highest-valued one; ties go to the lowest agent id and lowest chore id.
    Returns the schedule and its EF1 verdict.
    """
    if not (instance.valuations.is_additive and instance.valuations.is_identical()):
        raise InputError(
            "envy-cycle demo needs identical additive valuations (cycle resolution is out of scope)"
        )
    assignment: list[Optional[int]] = [None] * instance.m
    bundle_masks = [0] * instance.n
    values = [0] * instance.n
    while True:
        picks = {
            agent: _favourite_feasible(instance, agent, assignment, bundle_masks[agent])
            for agent in range(instance.n)
        }
        ready = [agent for agent, choice in picks.items() if choice is not None]
        if not ready:
            break
        agent = max(ready, key=lambda a: (values[a], -a))
        choice = picks[agent]
        assignment[choice] = agent
        bundle_masks[agent] |= 1 << choice
        values[agent] += instance.valuations.chore_value(agent, choice)
    schedule = Schedule(instance.n, tuple(assignment))
    return schedule, check_ef1(schedule, instance)


def _favourite_feasible(
    instance: Instance, agent: int, assignment: Sequence[Optional[int]], bundle_mask: int
) -> Optional[int]:
    """The agent's highest-valued unassigned chore that fits its bundle, ties
    to the lowest id; None if no unassigned chore fits."""
    nbr = instance.graph().neighbor_masks
    feasible = [
        c for c in range(instance.m) if assignment[c] is None and not nbr[c] & bundle_mask
    ]
    return min(
        feasible, key=lambda c: (-instance.valuations.chore_value(agent, c), c), default=None
    )
