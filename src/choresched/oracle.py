"""Exhaustive ground truth for small instances.

enumerate_maximal walks every feasible-and-maximal schedule of an instance,
exists() answers fairness-existence queries over that space, and
is_pareto_optimal compares one schedule with all of it.  The demo_*
functions replay the classic round-robin and top-trading envy-cycle
procedures whose EF1 guarantees break under conflict constraints.

Everything here is desk-scale by design, with one size guard on the
enumeration (GUARD, 16 chores, unless the caller gives another), which
_search alone checks.  That one search serves every query.  It checks a
chore left out as soon as its last neighbour is decided and cuts the branch
if some agent could still take it, so every leaf is a maximal schedule: the
98,304 of a 3-agent, 16-chore path take well under a second.  Under an
additive profile it keeps every agent's bundle value as it goes, which the
Pareto check, max_utilitarian_maximal and ef1+po read.

exists() runs one loop over the leaves a criterion can accept: for
ef1+complete the complete schedules alone, cut at the first chore that fits
no bundle; for ef1+po those whose utility vector is on the Pareto frontier
of a first pass's distinct vectors, which holds no schedule and takes about
as long as the enumeration.  The checkers' yes/no decisions, which look at
each envious agent once and stop at the first that fails, decide each leaf.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from operator import ge, itemgetter
from typing import Iterator, Optional, Sequence

from .checkers import (
    FairnessVerdict,
    _efk_holds,
    _efx_holds,
    _require_agents,
    _utilities,
    _value_rows,
    check_ef1,
    check_efk,
    check_efx,
    is_maximal,
)
from .core import (
    InputError,
    Instance,
    Schedule,
    SizeGuardError,
    _bundles,
    _require_instance,
)

CRITERIA = ("ef", "ef1", "efx", "efk", "ef1+po", "ef1+complete")
GUARD = 16
_K = {"ef": 0, "ef1": 1, "ef1+po": 1, "ef1+complete": 1}  # the k of each EF-k criterion but "efk"


@dataclass(frozen=True)
class ExistenceQuery:
    """A fairness-existence question over the maximal schedules of an instance.

    criterion is one of CRITERIA; every criterion implicitly includes
    maximality (the search space is the maximal schedules, and for
    "ef1+complete" the complete ones, all of them maximal).  k is required
    for "efk"; guard, if given, replaces GUARD as the enumeration size guard.
    """

    instance: Instance
    criterion: str
    k: Optional[int] = None
    guard: Optional[int] = None

    def __post_init__(self) -> None:
        _require_instance(self.instance)
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
    _require_instance(instance)
    if type(guard) is not int:
        raise InputError(f"guard must be an integer, got {guard!r}")
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
    is valued at each leaf, from the leaf's bundles.
    """
    leaves = _search(instance, guard)
    if instance.valuations.is_additive:
        return leaves
    n = instance.n
    return ((assignment, _utilities(_bundles(n, assignment), instance)) for assignment, _ in leaves)


def enumerate_maximal(instance: Instance, guard: int = GUARD) -> Iterator[Schedule]:
    """Yield every feasible-and-maximal schedule exactly once.

    The order is deterministic: lexicographic in the assignment vector with
    agent 0 < agent 1 < ... < unassigned (see _search).
    """
    leaves = _search(instance, guard)
    n = instance.n
    return (Schedule(n, tuple(assignment)) for assignment, _ in leaves)


def exists(query: ExistenceQuery) -> Optional[Schedule]:
    """Return a witness maximal schedule satisfying the criterion, or None.

    The answer is definitive: None means no maximal schedule of the instance
    satisfies the criterion.  The witness is the first such schedule in
    enumeration order.  One loop decides the leaves a criterion can accept:
    "ef1+complete" searches the complete feasible schedules alone (every one
    is maximal), "ef1+po" keeps the leaves whose utility vector is on the
    _frontier of a first pass's distinct vectors, and the others take every
    maximal schedule.  EF-k criteria, ef1+po and ef1+complete among them,
    decide through _efk_holds and "efx" through _efx_holds, each envious
    agent once, from the bundles of a leaf, which the search built feasible.
    Only the witness is built as a Schedule.
    """
    instance = query.instance
    guard = GUARD if query.guard is None else query.guard
    criterion = query.criterion
    holds = _efx_holds if criterion == "efx" else partial(_efk_holds, k=_K.get(criterion, query.k))
    if criterion == "ef1+po":
        frontier = _frontier({tuple(mine) for _, mine in _valued(instance, guard)})
        leaves = (leaf for leaf in _valued(instance, guard) if tuple(leaf[1]) in frontier)
    else:
        leaves = _search(instance, guard, complete=criterion == "ef1+complete")
    for assignment, _ in leaves:
        if holds(_value_rows(_bundles(instance.n, assignment), instance), instance):
            return Schedule(instance.n, tuple(assignment))
    return None


def _envy_verdict(
    schedule: Schedule, instance: Instance, criterion: str, k: Optional[int] = None
) -> FairnessVerdict:
    """The verdict of the envy criterion "ef", "ef1", "efx" or "efk" (with k)."""
    if criterion == "efx":
        return check_efx(schedule, instance)
    return check_efk(schedule, instance, _K.get(criterion, k))


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


def is_pareto_optimal(schedule: Schedule, instance: Instance, guard: int = GUARD) -> bool:
    """True iff no other maximal schedule Pareto-dominates the given one.

    Pareto optimality is defined relative to ALL maximal schedules, so this
    walks them, under the guard, to the first that is at least as good for
    every agent and not equal.  The input must itself be maximal.
    """
    _require_agents(schedule, instance)
    if not is_maximal(schedule, instance.graph()):
        raise InputError("Pareto optimality is only defined for maximal schedules")
    own = _utilities(schedule.bundles(), instance)
    return not any(
        all(map(ge, other, own)) and tuple(other) != own for _, other in _valued(instance, guard)
    )


def max_utilitarian_maximal(instance: Instance, guard: int = GUARD) -> Schedule:
    """A maximal schedule maximizing the sum of agents' utilities.

    Such a schedule is Pareto optimal.  Ties go to the first schedule in
    enumeration order, the one max keeps.
    """
    totals = ((sum(mine), tuple(assignment)) for assignment, mine in _valued(instance, guard))
    return Schedule(instance.n, max(totals, key=itemgetter(0))[1])


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
    _require_instance(instance)
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
    _require_instance(instance)
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
