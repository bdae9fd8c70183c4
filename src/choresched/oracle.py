"""Exhaustive ground truth for small instances.

enumerate_maximal walks every feasible-and-maximal schedule of an instance,
exists() answers fairness-existence queries over that space, and the demo_*
functions replay the classic round-robin and top-trading envy-cycle
procedures whose EF1 guarantees break under conflict constraints.

Everything here is desk-scale by design, with a size guard on the
enumeration (default 16 chores).  One search, _search, serves every query.
It checks a chore left out as soon as its last neighbour is decided and
cuts the branch if some agent could still take it, so every leaf is a
maximal schedule; it runs on one explicit stack and, under an additive
profile, keeps every agent's bundle value as it goes.  The 98,304 maximal
schedules of a 3-agent, 16-chore path take well under a second to
enumerate.  The ef1+po query, the Pareto check and max_utilitarian_maximal
read those running values instead of rebuilding bundles, and ef1+po keeps
the distinct utility vectors rather than the schedules: on that path it
takes about as long as the enumeration and a few MiB more memory.

exists() walks only the schedules a criterion can accept.  ef1+complete
asks the search for complete schedules alone: it never leaves a chore out,
so it cuts each branch at the first chore that fits no bundle and never
walks the maximal schedules that leave chores out.  The envy criteria
decide each leaf with the checkers' yes/no decisions, which look at each
envious agent once and stop at the first that fails.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from operator import ge
from typing import Iterator, Optional, Sequence

from .checkers import (
    FairnessVerdict,
    _efk_holds,
    _efx_holds,
    _utilities,
    _value_rows,
    check_ef1,
    check_efk,
    check_efx,
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
    maximality (the search space is the maximal schedules, and for
    "ef1+complete" the complete ones, all of them maximal).  k is required
    for "efk"; guard overrides the enumeration size guard.
    """

    instance: Instance
    criterion: str
    k: Optional[int] = None
    guard: Optional[int] = None

    def __post_init__(self) -> None:
        if self.criterion not in CRITERIA:
            raise InputError(f"unknown criterion {self.criterion!r}; expected one of {CRITERIA}")
        if self.k is not None and type(self.k) is not int:
            raise InputError(f"k must be an integer, got {self.k!r}")
        if self.criterion == "efk" and (self.k is None or self.k < 0):
            raise InputError("criterion 'efk' needs a non-negative k")


def _search(
    instance: Instance, guard: int, complete: bool = False
) -> Iterator[tuple[list[Optional[int]], list[int]]]:
    """Walk every feasible-and-maximal schedule exactly once, yielding
    (assignment, utilities) at each.

    The order is deterministic: lexicographic in the assignment vector with
    agent 0 < agent 1 < ... < unassigned.  The search decides chores in id
    order and never assigns a chore to an agent whose bundle it overlaps.
    due[c] lists the chores x whose last decided neighbour is c, that is
    max(x, highest neighbour id of x) == c.  Once c is decided, assigned or
    left out, no later decision touches what blocks such an x: an
    unassigned x in due[c] must overlap every bundle now, or the branch is
    dead and is cut there.  Every chore is due once, so every leaf of the
    search is a maximal schedule.

    With complete set, a chore's options stop at agent n - 1, so no chore is
    left out and no chore is ever due: the leaves are exactly the complete
    feasible schedules, every one of them maximal, in the same order.

    One explicit stack holds the search: tried[c] counts the options tried
    at chore c, so each leaf is handed out at depth one.  Under an additive
    profile utilities[i] is agent i's bundle value, kept as chores are
    assigned and taken back; under a monotone one it stays all zeros (see
    _valued).  Both lists are the search's own and change after each leaf:
    copy what is kept.
    """
    if instance.m > guard:
        raise SizeGuardError(
            f"enumeration over {instance.m} chores exceeds the guard {guard}"
        )
    n, m = instance.n, instance.m
    nbr = instance.graph().neighbor_masks
    rows = instance.valuations.table if instance.valuations.is_additive else [[0] * m] * n
    due: list[list[int]] = [[] for _ in range(m)]
    if not complete:
        for x in range(m):
            due[max(x, nbr[x].bit_length() - 1)].append(x)
    last_option = n - 1 if complete else n

    def walk() -> Iterator[tuple[list[Optional[int]], list[int]]]:
        assignment: list[Optional[int]] = [None] * m
        bundle_masks = [0] * n
        utilities = [0] * n
        if not m:
            yield assignment, utilities
            return
        tried = [0] * m
        last = m - 1
        c = 0
        while c >= 0:
            agent = assignment[c]
            if agent is not None:
                bundle_masks[agent] ^= 1 << c
                utilities[agent] -= rows[agent][c]
                assignment[c] = None
            # Options at c: agents 0..n-1 whose bundle c does not overlap,
            # then n, leaving c out, unless the search is for complete ones.
            option = tried[c]
            mask = nbr[c]
            while option < n and mask & bundle_masks[option]:
                option += 1
            if option > last_option:
                tried[c] = 0
                c -= 1
                continue
            tried[c] = option + 1
            if option < n:
                assignment[c] = option
                bundle_masks[option] |= 1 << c
                utilities[option] += rows[option][c]
            # Go deeper only if every unassigned chore due at c overlaps
            # every bundle; otherwise the next pass tries c's next option.
            # Plain loops: all() over generators here doubles the search time.
            for x in due[c]:
                if assignment[x] is None:
                    mask = nbr[x]
                    for bm in bundle_masks:
                        if not mask & bm:
                            break
                    else:
                        continue
                    break
            else:
                if c == last:
                    yield assignment, utilities
                else:
                    c += 1

    return walk()


def _valued(
    instance: Instance, guard: int
) -> Iterator[tuple[list[Optional[int]], Sequence[int]]]:
    """_search with every agent's value of its own bundle at each leaf.

    An additive profile's values come from the search; a monotone profile
    is valued at each leaf, the one place the oracle rebuilds bundles.
    """
    leaves = _search(instance, guard)
    if instance.valuations.is_additive:
        return leaves
    n = instance.n
    return (
        (assignment, _utilities(Schedule(n, tuple(assignment)), instance))
        for assignment, _ in leaves
    )


def enumerate_maximal(instance: Instance, guard: int = 16) -> Iterator[Schedule]:
    """Yield every feasible-and-maximal schedule exactly once.

    The order is deterministic: lexicographic in the assignment vector with
    agent 0 < agent 1 < ... < unassigned (see _search).
    """
    n = instance.n
    return (Schedule(n, tuple(assignment)) for assignment, _ in _search(instance, guard))


def exists(query: ExistenceQuery) -> Optional[Schedule]:
    """Return a witness maximal schedule satisfying the criterion, or None.

    The answer is definitive: None means no maximal schedule of the instance
    satisfies the criterion.  The witness is the first such schedule in
    enumeration order.  Each criterion walks only the schedules it can
    accept: "ef1+complete" searches the complete feasible schedules alone
    (every one is maximal), and the others every maximal schedule; "ef1+po"
    has its own two passes.  EF-k criteria decide through _efk_holds and
    "efx" through _efx_holds, each envious agent once, from the bundles of a
    leaf, which the search built feasible.
    """
    instance = query.instance
    guard = query.guard if query.guard is not None else 16
    criterion = query.criterion
    if criterion == "ef1+po":
        return _exists_ef1_po(instance, guard)
    k = {"ef": 0, "ef1": 1, "efk": query.k, "ef1+complete": 1}.get(criterion)
    holds = _efx_holds if criterion == "efx" else partial(_efk_holds, k=k)
    n = instance.n
    for assignment, _ in _search(instance, guard, complete=criterion == "ef1+complete"):
        schedule = Schedule(n, tuple(assignment))
        if holds(_value_rows(schedule.bundles(), instance), instance):
            return schedule
    return None


def _envy_verdict(
    schedule: Schedule, instance: Instance, criterion: str, k: Optional[int] = None
) -> FairnessVerdict:
    """The verdict of the envy criterion "ef", "ef1", "efx" or "efk" (with k)."""
    if criterion == "efx":
        return check_efx(schedule, instance)
    return check_efk(schedule, instance, {"ef": 0, "ef1": 1, "efk": k}[criterion])


def _exists_ef1_po(instance: Instance, guard: int) -> Optional[Schedule]:
    """EF1 among maximal schedules not Pareto-dominated by any maximal schedule.

    Two passes of the search, and no schedule is kept between them.  The
    first collects the distinct utility vectors, whose Pareto frontier
    _frontier finds once.  The second stops at the first schedule, in
    enumeration order, whose vector is on the frontier and that passes EF1.
    """
    n = instance.n
    frontier = _frontier({tuple(mine) for _, mine in _valued(instance, guard)})
    for assignment, mine in _valued(instance, guard):
        if tuple(mine) in frontier:
            schedule = Schedule(n, tuple(assignment))
            if _efk_holds(_value_rows(schedule.bundles(), instance), instance, 1):
                return schedule
    return None


def _frontier(vectors: set[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """The vectors that no other vector of the set Pareto-dominates.

    In descending lexicographic order a dominating vector comes before the
    vectors it dominates, and each vector w before v has w[0] >= v[0].  So v
    is dominated iff some frontier vector found before it is at least v in
    every later coordinate.  A staircase over coordinates 1 and 2 of the
    frontier answers that by bisection: xs never falls and ys strictly
    falls, so the first point with x >= v[1] has the largest y among them.
    Missing coordinates read 0, so for two agents the staircase is a running
    maximum.  Above three agents a covered vector is confirmed by comparing
    it with the frontier.
    """
    frontier: set[tuple[int, ...]] = set()
    xs: list[int] = []
    neg_ys: list[int] = []
    for vector in sorted(vectors, reverse=True):
        x, y = (vector[1:3] + (0, 0))[:2]
        at = bisect_left(xs, x)
        covered = at < len(xs) and -neg_ys[at] >= y
        if covered and (
            len(vector) <= 3 or any(all(map(ge, w, vector)) for w in frontier)
        ):
            continue
        frontier.add(vector)
        if not covered:
            # Replace the points left of it that it covers, those with y <= its y.
            start = bisect_left(neg_ys, -y)
            xs[start:at] = [x]
            neg_ys[start:at] = [-y]
    return frontier


def max_utilitarian_maximal(instance: Instance, guard: int = 16) -> Schedule:
    """A maximal schedule maximizing the sum of agents' utilities.

    Such a schedule is Pareto optimal.  Ties go to the first schedule in
    enumeration order.
    """
    best: Optional[tuple[Optional[int], ...]] = None
    best_total = 0
    for assignment, mine in _valued(instance, guard):
        total = sum(mine)
        if best is None or total > best_total:
            best, best_total = tuple(assignment), total
    if best is None:
        raise AssertionError("every instance has at least one maximal schedule")
    return Schedule(instance.n, best)


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
